#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/csv.h"
#include "common/fileutil.h"
#include "common/random.h"
#include "common/strings.h"
#include "io/json.h"
#include "io/geojson.h"
#include "io/latlon_io.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/summary_json.h"
#include "io/trajectory_io.h"
#include "roadnet/map_generator.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::ExpectSameCorpus;
using ::stmaker::testing::GetTestWorld;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// Trajectory CSV
// --------------------------------------------------------------------------

TEST(TrajectoryIoTest, RoundTrip) {
  std::vector<RawTrajectory> corpus(2);
  corpus[0].traveler = 7;
  corpus[0].samples = {{{1.25, -2.5}, 100.0}, {{3.0, 4.0}, 110.5}};
  corpus[1].traveler = -1;
  corpus[1].samples = {{{0, 0}, 0.0}, {{10, 0}, 9.0}, {{20, 0}, 18.0}};

  std::string path = TempPath("traj_roundtrip.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, corpus).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].traveler, 7);
  EXPECT_EQ((*loaded)[1].traveler, -1);
  ASSERT_EQ((*loaded)[0].samples.size(), 2u);
  EXPECT_NEAR((*loaded)[0].samples[0].pos.x, 1.25, 1e-3);
  EXPECT_NEAR((*loaded)[0].samples[0].pos.y, -2.5, 1e-3);
  EXPECT_NEAR((*loaded)[0].samples[1].time, 110.5, 1e-3);
  ASSERT_EQ((*loaded)[1].samples.size(), 3u);
}

TEST(TrajectoryIoTest, RoundTripGeneratedCorpus) {
  const auto& world = GetTestWorld();
  std::vector<RawTrajectory> corpus;
  for (size_t i = 0; i < 5; ++i) corpus.push_back(world.history[i].raw);
  std::string path = TempPath("traj_generated.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, corpus).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), corpus.size());
  for (size_t t = 0; t < corpus.size(); ++t) {
    ASSERT_EQ((*loaded)[t].samples.size(), corpus[t].samples.size());
    for (size_t i = 0; i < corpus[t].samples.size(); ++i) {
      EXPECT_NEAR((*loaded)[t].samples[i].pos.x,
                  corpus[t].samples[i].pos.x, 1e-3);
      EXPECT_NEAR((*loaded)[t].samples[i].time, corpus[t].samples[i].time,
                  1e-3);
    }
  }
}

TEST(TrajectoryIoTest, EmptyCorpusRoundTrips) {
  std::string path = TempPath("traj_empty.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, {}).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(TrajectoryIoTest, RejectsBadHeader) {
  std::string path = TempPath("traj_badheader.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRow({"a", "b"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(ReadTrajectoriesCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrajectoryIoTest, RejectsNonNumericField) {
  std::string path = TempPath("traj_nonnumeric.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "traveler", "x", "y",
                                "time"})
                    .ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "abc", "0", "0"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_FALSE(ReadTrajectoriesCsv(path).ok());
}

TEST(TrajectoryIoTest, RejectsInterleavedIds) {
  std::string path = TempPath("traj_interleaved.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "traveler", "x", "y",
                                "time"})
                    .ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "0", "0", "0"}).ok());
    ASSERT_TRUE(writer->WriteRow({"1", "1", "0", "0", "0"}).ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "5", "0", "5"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_FALSE(ReadTrajectoriesCsv(path).ok());
}

TEST(TrajectoryIoTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadTrajectoriesCsv("/nonexistent_zz/t.csv").status().code(),
            StatusCode::kIoError);
}

/// The reader ReadTrajectoriesCsv replaced: the whole file as a table of
/// strings, then the rows, with interleaving checked by scanning every
/// earlier id. Kept as the reference the streaming reader must agree with,
/// values and error text alike.
Result<std::vector<RawTrajectory>> ReferenceReadTrajectoriesCsv(
    const std::string& path) {
  auto parse_double = [](const std::string& field) -> Result<double> {
    char* end = nullptr;
    double v = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0') {
      return Status::InvalidArgument("not a number: '" + field + "'");
    }
    return v;
  };
  auto parse_int = [](const std::string& field) -> Result<int64_t> {
    char* end = nullptr;
    long long v = std::strtoll(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0') {
      return Status::InvalidArgument("not an integer: '" + field + "'");
    }
    return static_cast<int64_t>(v);
  };
  STMAKER_ASSIGN_OR_RETURN(
      auto rows,
      ReadCsvTable(path, {"trajectory_id", "traveler", "x", "y", "time"}));
  std::vector<RawTrajectory> out;
  int64_t current_id = -1;
  bool have_current = false;
  std::vector<int64_t> seen_ids;
  for (const auto& row : rows) {
    STMAKER_ASSIGN_OR_RETURN(int64_t id, parse_int(row[0]));
    STMAKER_ASSIGN_OR_RETURN(int64_t traveler, parse_int(row[1]));
    STMAKER_ASSIGN_OR_RETURN(double x, parse_double(row[2]));
    STMAKER_ASSIGN_OR_RETURN(double y, parse_double(row[3]));
    STMAKER_ASSIGN_OR_RETURN(double time, parse_double(row[4]));
    if (!have_current || id != current_id) {
      for (int64_t prev : seen_ids) {
        if (prev == id) {
          return Status::InvalidArgument(StrFormat(
              "trajectory id %lld is interleaved", static_cast<long long>(id)));
        }
      }
      seen_ids.push_back(id);
      out.emplace_back();
      current_id = id;
      have_current = true;
    }
    out.back().traveler = traveler;
    out.back().samples.push_back({{x, y}, time});
  }
  return out;
}

TEST(TrajectoryIoTest, StreamingReaderMatchesReferenceOnGeneratedCorpus) {
  const auto& world = GetTestWorld();
  std::vector<RawTrajectory> corpus;
  for (const auto& trip : world.history) corpus.push_back(trip.raw);
  const std::string path = TempPath("traj_reference_generated.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, corpus).ok());
  auto got = ReadTrajectoriesCsv(path);
  auto want = ReferenceReadTrajectoriesCsv(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameCorpus(*got, *want, "generated corpus");
}

TEST(TrajectoryIoTest, StreamingReaderMatchesReferenceOnHostileRows) {
  // Rows built from field spellings strtod/strtoll treat differently from
  // a plain decimal parser (blanks, '+', hex, nan/inf, overflow, trailing
  // junk, NUL bytes), quoted and CRLF-terminated variants, repeated and
  // interleaved ids, dropped or extra fields, a damaged header and an
  // unterminated quote. Each file must produce the reference's corpus or
  // the reference's exact error.
  const std::vector<std::string> ints = {
      "0", "1", "2", "-1", " 3", "+4", "007", "9223372036854775808",
      "-9223372036854775809", "1.0", "", "x", "0x10", std::string("5\0z", 3)};
  const std::vector<std::string> reals = {
      "0", "-0", "1.5", "-2.25", "1e3", "1E-3", " 7", "+8", "0x1p3", ".5",
      "5.", "nan", "-nan", "nan(123)", "inf", "-Infinity", "1e999", "1e-400",
      "4.9e-324", "2.2250738585072011e-308", "123456.789012345678901",
      "", "abc", "1.5x", "1,5", std::string("6\0q", 3)};
  Random rng(9001);
  const std::string path = TempPath("traj_reference_fuzz.csv");
  auto quoted = [&](const std::string& field) {
    if (rng.UniformInt(uint64_t{6}) != 0) return field;
    std::string q = "\"";
    for (char c : field) {
      q += c == '"' ? std::string("\"\"") : std::string(1, c);
    }
    return q + "\"";
  };
  for (int round = 0; round < 600; ++round) {
    std::string text;
    const uint64_t header_roll = rng.UniformInt(uint64_t{40});
    if (header_roll == 0) {
      text = "trajectory_id,traveler,x,y\n";
    } else if (header_roll != 1) {  // roll 1: no header at all
      text = "trajectory_id,traveler,x,y,time\n";
    }
    const uint64_t rows = rng.UniformInt(uint64_t{12});
    const uint64_t base = rng.UniformInt(uint64_t{3});
    for (uint64_t r = 0; r < rows; ++r) {
      // Mostly well-formed rows so the fuzz reaches the value and
      // interleaving checks; the rest exercise every other path.
      const bool clean = rng.UniformInt(uint64_t{4}) != 0;
      std::vector<std::string> fields;
      fields.push_back(clean ? std::to_string(base + r / 3 +
                                              rng.UniformInt(uint64_t{2}))
                             : ints[rng.UniformInt(ints.size())]);
      fields.push_back(clean ? std::to_string(rng.UniformInt(uint64_t{3}))
                             : ints[rng.UniformInt(ints.size())]);
      for (int k = 0; k < 3; ++k) {
        fields.push_back(clean ? StrFormat("%.3f", rng.Uniform(-500, 500))
                               : reals[rng.UniformInt(reals.size())]);
      }
      const uint64_t shape = rng.UniformInt(uint64_t{30});
      if (shape == 0) fields.pop_back();
      if (shape == 1) fields.push_back("9");
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) text += ',';
        text += quoted(fields[f]);
      }
      text += rng.UniformInt(uint64_t{5}) == 0 ? "\r\n" : "\n";
    }
    if (rng.UniformInt(uint64_t{3}) == 0 && !text.empty()) {
      text.pop_back();  // no final newline
    }
    if (rng.UniformInt(uint64_t{50}) == 0) text += "\"open";
    ASSERT_TRUE(WriteFileToPath(path, text).ok());
    auto got = ReadTrajectoriesCsv(path);
    auto want = ReferenceReadTrajectoriesCsv(path);
    ASSERT_EQ(got.ok(), want.ok())
        << "round " << round << ": got " << got.status().ToString()
        << ", want " << want.status().ToString() << "\n" << text;
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString())
          << "round " << round << "\n" << text;
      continue;
    }
    ExpectSameCorpus(*got, *want, "round " + std::to_string(round));
  }
}

TEST(TrajectoryIoTest, InterleaveCheckScalesToManyTrips) {
  // 20k one-fix trips: the old earlier-id scan was quadratic in this; the
  // hash set keeps it linear, and the last id repeating the first is
  // still caught.
  std::string text = "trajectory_id,traveler,x,y,time\n";
  for (int id = 0; id < 20000; ++id) {
    text += std::to_string(id) + ",1,0.000,0.000," + std::to_string(id) + "\n";
  }
  const std::string path = TempPath("traj_many_trips.csv");
  ASSERT_TRUE(WriteFileToPath(path, text).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 20000u);

  ASSERT_TRUE(WriteFileToPath(path, text + "0,1,0.000,0.000,0.000\n").ok());
  auto interleaved = ReadTrajectoriesCsv(path);
  ASSERT_FALSE(interleaved.ok());
  EXPECT_EQ(interleaved.status().message(), "trajectory id 0 is interleaved");
}

// --------------------------------------------------------------------------
// Road network CSV
// --------------------------------------------------------------------------

TEST(RoadNetworkIoTest, RoundTripGeneratedCity) {
  MapGeneratorOptions options;
  options.blocks_x = 6;
  options.blocks_y = 6;
  options.seed = 11;
  GeneratedMap city = MapGenerator(options).Generate();
  std::string prefix = TempPath("net_roundtrip");
  ASSERT_TRUE(WriteRoadNetworkCsv(prefix, city.network).ok());
  auto loaded = ReadRoadNetworkCsv(prefix);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumNodes(), city.network.NumNodes());
  ASSERT_EQ(loaded->NumEdges(), city.network.NumEdges());
  for (size_t n = 0; n < city.network.NumNodes(); ++n) {
    EXPECT_NEAR(loaded->node(n).pos.x, city.network.node(n).pos.x, 1e-3);
    EXPECT_EQ(loaded->node(n).is_turning_point,
              city.network.node(n).is_turning_point);
  }
  for (size_t e = 0; e < city.network.NumEdges(); ++e) {
    const RoadEdge& a = city.network.edge(e);
    const RoadEdge& b = loaded->edge(e);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.grade, b.grade);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.name, b.name);
    EXPECT_NEAR(a.width_m, b.width_m, 1e-3);
    EXPECT_NEAR(a.cost_bias, b.cost_bias, 1e-6);
  }
  // The loaded network is immediately usable for spatial queries.
  EXPECT_GE(loaded->NearestEdge(city.network.node(0).pos, 100.0), 0);
}

TEST(RoadNetworkIoTest, RejectsInvalidGrade) {
  std::string prefix = TempPath("net_badgrade");
  {
    auto nodes = CsvWriter::Open(prefix + "_nodes.csv");
    ASSERT_TRUE(nodes.ok());
    ASSERT_TRUE(nodes->WriteRow({"node_id", "x", "y"}).ok());
    ASSERT_TRUE(nodes->WriteRow({"0", "0", "0"}).ok());
    ASSERT_TRUE(nodes->WriteRow({"1", "100", "0"}).ok());
    ASSERT_TRUE(nodes->Close().ok());
    auto edges = CsvWriter::Open(prefix + "_edges.csv");
    ASSERT_TRUE(edges.ok());
    ASSERT_TRUE(edges
                    ->WriteRow({"edge_id", "from", "to", "grade", "width",
                                "direction", "name", "bias"})
                    .ok());
    ASSERT_TRUE(
        edges->WriteRow({"0", "0", "1", "9", "10", "1", "X", "1.0"}).ok());
    ASSERT_TRUE(edges->Close().ok());
  }
  EXPECT_FALSE(ReadRoadNetworkCsv(prefix).ok());
}

TEST(RoadNetworkIoTest, RejectsUnboundedNodeCoordinates) {
  // strtod reads all of these; none is a position a map can hold.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"inf", "0"}, {"0", "-inf"}, {"nan", "0"}, {"0", "NAN"},
      {"2e7", "0"}, {"0", "-2e7"}, {"1e300", "1e300"}};
  for (const auto& [x, y] : bad) {
    SCOPED_TRACE(x + "," + y);
    std::string prefix = TempPath("net_unbounded");
    {
      auto nodes = CsvWriter::Open(prefix + "_nodes.csv");
      ASSERT_TRUE(nodes.ok());
      ASSERT_TRUE(nodes->WriteRow({"node_id", "x", "y"}).ok());
      ASSERT_TRUE(nodes->WriteRow({"0", "0", "0"}).ok());
      ASSERT_TRUE(nodes->WriteRow({"1", x, y}).ok());
      ASSERT_TRUE(nodes->Close().ok());
      auto edges = CsvWriter::Open(prefix + "_edges.csv");
      ASSERT_TRUE(edges.ok());
      ASSERT_TRUE(edges
                      ->WriteRow({"edge_id", "from", "to", "grade", "width",
                                  "direction", "name", "bias"})
                      .ok());
      ASSERT_TRUE(
          edges->WriteRow({"0", "0", "1", "3", "10", "1", "X", "1.0"}).ok());
      ASSERT_TRUE(edges->Close().ok());
    }
    Result<RoadNetwork> loaded = ReadRoadNetworkCsv(prefix);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(prefix + "_nodes.csv: row 3"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // The bound itself is a valid coordinate.
  std::string prefix = TempPath("net_at_bound");
  {
    auto nodes = CsvWriter::Open(prefix + "_nodes.csv");
    ASSERT_TRUE(nodes.ok());
    ASSERT_TRUE(nodes->WriteRow({"node_id", "x", "y"}).ok());
    ASSERT_TRUE(nodes->WriteRow({"0", "-1e7", "1e7"}).ok());
    ASSERT_TRUE(nodes->Close().ok());
    auto edges = CsvWriter::Open(prefix + "_edges.csv");
    ASSERT_TRUE(edges.ok());
    ASSERT_TRUE(edges
                    ->WriteRow({"edge_id", "from", "to", "grade", "width",
                                "direction", "name", "bias"})
                    .ok());
    ASSERT_TRUE(edges->Close().ok());
  }
  EXPECT_TRUE(ReadRoadNetworkCsv(prefix).ok());
}

// --------------------------------------------------------------------------
// POI CSV
// --------------------------------------------------------------------------

TEST(PoiIoTest, RejectsUnboundedCoordinates) {
  for (const char* bad : {"inf", "-inf", "nan", "2e7", "-2e7", "1e300"}) {
    SCOPED_TRACE(bad);
    std::string path = TempPath("pois_unbounded.csv");
    {
      auto writer = CsvWriter::Open(path);
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(writer->WriteRow({"x", "y", "name"}).ok());
      ASSERT_TRUE(writer->WriteRow({"1", "2", "Fine"}).ok());
      ASSERT_TRUE(writer->WriteRow({"3", bad, "Far"}).ok());
      ASSERT_TRUE(writer->Close().ok());
    }
    Result<std::vector<RawPoi>> loaded = ReadPoisCsv(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(path + ": row 3"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(PoiIoTest, RoundTripWithQuotedNames) {
  std::vector<RawPoi> pois = {{{1, 2}, "Plain Park"},
                              {{3, 4}, "Comma, Market"},
                              {{5, 6}, "Quote \" Tower"}};
  std::string path = TempPath("pois_roundtrip.csv");
  ASSERT_TRUE(WritePoisCsv(path, pois).ok());
  auto loaded = ReadPoisCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < pois.size(); ++i) {
    EXPECT_NEAR((*loaded)[i].pos.x, pois[i].pos.x, 1e-3);
    EXPECT_EQ((*loaded)[i].name, pois[i].name);
  }
}

// --------------------------------------------------------------------------
// JsonWriter
// --------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter json;
  json.BeginObject();
  json.Key("a").Int(1);
  json.Key("b").BeginArray().Int(1).Int(2).Int(3).EndArray();
  json.Key("c").BeginObject().Key("x").Bool(true).EndObject();
  json.Key("d").Null();
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"a\":1,\"b\":[1,2,3],\"c\":{\"x\":true},"
                        "\"d\":null}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::Escape("say \"hi\"\n\t\\"),
            "say \\\"hi\\\"\\n\\t\\\\");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, NumbersAreCompact) {
  JsonWriter json;
  json.BeginArray().Number(1.5).Number(2.0).Number(-0.25).EndArray();
  EXPECT_EQ(json.str(), "[1.5,2,-0.25]");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray()
      .Number(std::numeric_limits<double>::quiet_NaN())
      .Number(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(json.str(), "[null,null]");
}

// --------------------------------------------------------------------------
// Summary JSON
// --------------------------------------------------------------------------

TEST(SummaryJsonTest, SerializesRealSummary) {
  const auto& world = GetTestWorld();
  Random rng(7);
  Result<GeneratedTrip> trip =
      world.generator->GenerateTrip(9 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());
  auto summary = world.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  std::string json = SummaryToJson(*summary, world.maker->registry());
  // Structural sanity: starts/ends correctly, contains the key sections,
  // balanced braces and brackets.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"text\":"), std::string::npos);
  EXPECT_NE(json.find("\"symbolic\":"), std::string::npos);
  EXPECT_NE(json.find("\"partitions\":"), std::string::npos);
  EXPECT_NE(json.find("\"irregular_rates\":"), std::string::npos);
  EXPECT_NE(json.find("\"grade_of_road\":"), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  int brackets = 0;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(depth, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}


// --------------------------------------------------------------------------
// Lat/lon (Table I format) trajectories
// --------------------------------------------------------------------------

TEST(LatLonIoTest, PaperTimestampRoundTrip) {
  // The paper's Table I example.
  auto t = ParsePaperTimestamp("20131102 09:17:56");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatPaperTimestamp(*t), "20131102 09:17:56");
  // 1970 epoch sanity.
  auto epoch = ParsePaperTimestamp("19700101 00:00:00");
  ASSERT_TRUE(epoch.ok());
  EXPECT_DOUBLE_EQ(*epoch, 0.0);
  // Successive fixes differ by the right number of seconds.
  auto later = ParsePaperTimestamp("20131102 09:18:02");
  ASSERT_TRUE(later.ok());
  EXPECT_DOUBLE_EQ(*later - *t, 6.0);
  // Leap-year day.
  auto feb29 = ParsePaperTimestamp("20240229 12:00:00");
  ASSERT_TRUE(feb29.ok());
  EXPECT_EQ(FormatPaperTimestamp(*feb29), "20240229 12:00:00");
}

TEST(LatLonIoTest, ParseRejectsMalformedTimestamps) {
  EXPECT_FALSE(ParsePaperTimestamp("2013-11-02 09:17:56").ok());
  EXPECT_FALSE(ParsePaperTimestamp("20131102").ok());
  EXPECT_FALSE(ParsePaperTimestamp("20131302 09:17:56").ok());  // month 13
  EXPECT_FALSE(ParsePaperTimestamp("20131102 25:17:56").ok());  // hour 25
  EXPECT_FALSE(ParsePaperTimestamp("").ok());
}

TEST(LatLonIoTest, TrajectoryRoundTripThroughLatLon) {
  LocalProjection projection(LatLon{39.9, 116.4});
  std::vector<RawTrajectory> corpus(1);
  auto t0 = ParsePaperTimestamp("20131102 09:17:56");
  ASSERT_TRUE(t0.ok());
  corpus[0].samples = {{{100.0, 250.0}, *t0},
                       {{180.0, 240.0}, *t0 + 6},
                       {{260.0, 230.0}, *t0 + 12}};
  std::string path = TempPath("latlon_roundtrip.csv");
  ASSERT_TRUE(WriteLatLonTrajectoriesCsv(path, corpus, projection).ok());
  auto loaded = ReadLatLonTrajectoriesCsv(path, projection);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  ASSERT_EQ((*loaded)[0].samples.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    // Lat/lon serialization at 1e-6 degrees keeps ~0.1 m precision.
    EXPECT_NEAR((*loaded)[0].samples[i].pos.x, corpus[0].samples[i].pos.x,
                0.2);
    EXPECT_NEAR((*loaded)[0].samples[i].pos.y, corpus[0].samples[i].pos.y,
                0.2);
    EXPECT_NEAR((*loaded)[0].samples[i].time, corpus[0].samples[i].time,
                0.5);
  }
}

TEST(LatLonIoTest, RejectsOutOfRangeCoordinates) {
  std::string path = TempPath("latlon_badcoord.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "latitude", "longitude",
                                "timestamp"})
                    .ok());
    ASSERT_TRUE(
        writer->WriteRow({"0", "95.0", "116.4", "20131102 09:17:56"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  LocalProjection projection(LatLon{39.9, 116.4});
  EXPECT_FALSE(ReadLatLonTrajectoriesCsv(path, projection).ok());
}


// --------------------------------------------------------------------------
// GeoJSON export
// --------------------------------------------------------------------------

TEST(GeoJsonTest, TrajectoryExportIsWellFormed) {
  LocalProjection projection(LatLon{39.9, 116.4});
  RawTrajectory t;
  t.traveler = 3;
  t.samples = {{{0, 0}, 100.0}, {{500, 0}, 150.0}, {{500, 500}, 200.0}};
  std::string geojson = TrajectoryToGeoJson(t, projection);
  EXPECT_NE(geojson.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(geojson.find("\"LineString\""), std::string::npos);
  EXPECT_NE(geojson.find("\"raw_trajectory\""), std::string::npos);
  // The first coordinate is the projection origin (lon first per GeoJSON).
  EXPECT_NE(geojson.find("[116.4,39.9]"), std::string::npos);
}

TEST(GeoJsonTest, SummaryExportContainsPartitionsAndLandmarks) {
  const auto& world = GetTestWorld();
  Random rng(12);
  auto trip = world.generator->GenerateTrip(8 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());
  auto summary = world.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  LocalProjection projection(LatLon{39.9, 116.4});
  std::string geojson =
      SummaryToGeoJson(*summary, *world.landmarks, projection);
  EXPECT_NE(geojson.find("\"partition\""), std::string::npos);
  EXPECT_NE(geojson.find("\"landmark\""), std::string::npos);
  EXPECT_NE(geojson.find("\"sentence\""), std::string::npos);
  // Every partition contributes one LineString.
  size_t count = 0;
  size_t at = 0;
  while ((at = geojson.find("\"LineString\"", at)) != std::string::npos) {
    ++count;
    ++at;
  }
  EXPECT_EQ(count, summary->partitions.size());
  // Balanced braces (same structural check as the summary JSON test).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : geojson) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

// --------------------------------------------------------------------------
// NdjsonReader (bounded serve-loop line reader)
// --------------------------------------------------------------------------

TEST(NdjsonReaderTest, ReadsLinesAndStopsAtCleanEof) {
  std::istringstream in("{\"id\": 1}\n\n{\"id\": 2}\n");
  NdjsonReader reader(&in);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 1}");
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "");  // blank lines are the caller's to skip
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 2}");
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);  // clean EOF
  EXPECT_EQ(reader.lines_read(), 3u);
  EXPECT_EQ(reader.oversized_lines(), 0u);
}

TEST(NdjsonReaderTest, MultiMegabyteLineIsRejectedWithBoundedMemory) {
  // A 3 MiB line against a 1 MiB cap: the reader must reject it with
  // kInvalidArgument, never buffer more than the cap, and resynchronize so
  // the next line still parses.
  constexpr size_t kLineBytes = 3u << 20;
  std::string input(kLineBytes, 'x');
  input += "\n{\"id\": 9}\n";
  std::istringstream in(input);
  NdjsonReader reader(&in, /*max_line_bytes=*/1u << 20);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("exceeds"), std::string::npos);
  EXPECT_TRUE(line.empty());               // nothing leaks to the caller
  EXPECT_LE(line.capacity(), 1u << 20);    // the buffer did not balloon
  EXPECT_EQ(reader.oversized_lines(), 1u);
  got = reader.Next(&line);  // stream re-synced past the bad line
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 9}");
}

TEST(NdjsonReaderTest, OversizedLineAtExactBoundaryPasses) {
  std::string exact(64, 'y');
  std::istringstream in(exact + "\n");
  NdjsonReader reader(&in, /*max_line_bytes=*/64);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(line, exact);
}

TEST(NdjsonReaderTest, TruncatedFinalLineIsAnError) {
  std::istringstream in("{\"id\": 1}\n{\"id\": 2");  // no trailing newline
  NdjsonReader reader(&in);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(line, "{\"id\": 1}");
  got = reader.Next(&line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("mid-line"), std::string::npos);
}

}  // namespace
}  // namespace stmaker
