#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/fileutil.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");

  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "gone");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  STMAKER_ASSIGN_OR_RETURN(int h, Half(x));
  STMAKER_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);

  Result<int> fail = QuarterViaMacro(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kInvalidArgument);
}

// Result must carry move-only payloads through construction, rvalue
// value(), and the ASSIGN_OR_RETURN macro — serving code moves
// unique_ptr-owned state through all three.

TEST(ResultTest, HoldsMoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
  std::unique_ptr<int> owned = std::move(r).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
}

TEST(ResultTest, MoveOnlyErrorPath) {
  Result<std::unique_ptr<int>> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "boom");
  // status() stays callable repeatedly (it copies, never consumes).
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return std::make_unique<int>(x);
}

Result<int> UnboxViaMacro(int x) {
  STMAKER_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  return *box;
}

TEST(ResultTest, AssignOrReturnMovesNonCopyablePayload) {
  Result<int> ok = UnboxViaMacro(9);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 9);

  Result<int> fail = UnboxViaMacro(-1);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fail.status().message(), "negative");
}

// --------------------------------------------------------------------------
// STMAKER_DCHECK
// --------------------------------------------------------------------------

TEST(CheckTest, DcheckCompilesOutInReleaseBuilds) {
#ifdef NDEBUG
  // In release builds (the repo default and the CI configuration) the
  // expression must not be evaluated at all — a failing predicate with a
  // side effect proves both.
  int evaluations = 0;
  STMAKER_DCHECK([&] {
    ++evaluations;
    return false;
  }());
  EXPECT_EQ(evaluations, 0) << "STMAKER_DCHECK evaluated its argument "
                               "under NDEBUG";
#else
  GTEST_SKIP() << "debug build: STMAKER_DCHECK is live by design";
#endif
}

// --------------------------------------------------------------------------
// Random
// --------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RandomTest, UniformIntBounds) {
  Random rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    uint64_t v = rng.UniformInt(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
    int64_t w = rng.UniformInt(-2, 2);
    EXPECT_GE(w, -2);
    EXPECT_LE(w, 2);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values in [0,5) should appear";
}

TEST(RandomTest, NormalMoments) {
  Random rng(5);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.07);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, ExponentialMean) {
  Random rng(8);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 2.0);
}

TEST(RandomTest, WeightedIndexRespectsWeights) {
  Random rng(10);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.WeightedIndex(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

// --------------------------------------------------------------------------
// Strings
// --------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "abc"), "3-abc");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringsTest, FormatNumberTrimsZeros) {
  EXPECT_EQ(FormatNumber(14.0), "14");
  EXPECT_EQ(FormatNumber(13.5), "13.5");
  EXPECT_EQ(FormatNumber(13.50, 2), "13.5");
  EXPECT_EQ(FormatNumber(0.0), "0");
  EXPECT_EQ(FormatNumber(-2.50), "-2.5");
  EXPECT_EQ(FormatNumber(-0.0), "0");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(1), "1 second");
  EXPECT_EQ(FormatDuration(45), "45 seconds");
  EXPECT_EQ(FormatDuration(167), "2 minutes");
  EXPECT_EQ(FormatDuration(3600), "1 hour");
  EXPECT_EQ(FormatDuration(3600 + 12 * 60), "1 hour 12 minutes");
  EXPECT_EQ(FormatDuration(2 * 3600), "2 hours");
  EXPECT_EQ(FormatDuration(-5), "0 seconds");
}

// --------------------------------------------------------------------------
// CSV
// --------------------------------------------------------------------------

TEST(CsvTest, ParseSimple) {
  auto rows = ParseCsv("a,b\nc,d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto rows = ParseCsv("\"a,b\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a,b", "say \"hi\""}));
}

TEST(CsvTest, ParseHandlesCrlfAndMissingFinalNewline) {
  auto rows = ParseCsv("a,b\r\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, ParseEmptyInput) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(CsvTest, ParseUnterminatedQuoteFails) {
  auto rows = ParseCsv("\"oops");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

/// The character-at-a-time CSV parser that TokenizeCsv replaced, kept as
/// the reference ParseCsv must keep agreeing with.
Result<std::vector<std::vector<std::string>>> ReferenceParseCsv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        field_started = true;
        break;
      case '\r':
        break;
      case '\n':
        row.push_back(std::move(field));
        field.clear();
        rows.push_back(std::move(row));
        row.clear();
        field_started = false;
        break;
      default:
        field += c;
        field_started = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (field_started || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(CsvTest, ParseAgreesWithCharacterReferenceOnFuzzedText) {
  // Quotes, doubled quotes, CR/LF in and out of quotes, empty fields and
  // missing final newlines, drawn from a small alphabet so every
  // combination shows up.
  Random rng(4242);
  const char alphabet[] = "ab1,,\"\"\n\r ";
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const size_t len = rng.UniformInt(static_cast<uint64_t>(48));
    for (size_t i = 0; i < len; ++i) {
      text += alphabet[rng.UniformInt(
          static_cast<uint64_t>(sizeof(alphabet) - 1))];
    }
    auto got = ParseCsv(text);
    auto want = ReferenceParseCsv(text);
    ASSERT_EQ(got.ok(), want.ok()) << "text: " << text;
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(*got, *want) << "text: " << text;
  }
}

TEST(CsvTest, WriteReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/stmaker_csv_test.csv";
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRow({"plain", "with,comma", "with\"quote"}).ok());
    ASSERT_TRUE(writer->WriteRow({"second", "line", "multi\nline"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto rows = ParseCsv(*text);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0],
            (std::vector<std::string>{"plain", "with,comma", "with\"quote"}));
  EXPECT_EQ((*rows)[1],
            (std::vector<std::string>{"second", "line", "multi\nline"}));
}

TEST(CsvTest, WriteAfterCloseFails) {
  std::string path = ::testing::TempDir() + "/stmaker_csv_closed.csv";
  auto writer = CsvWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->WriteRow({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(CsvTest, OpenBadPathFails) {
  auto writer = CsvWriter::Open("/nonexistent_dir_zz/file.csv");
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// CSV tables (schema-checked rectangular CSV)
// --------------------------------------------------------------------------

TEST(CsvTableTest, ReturnsDataRowsWithoutHeader) {
  auto rows = ParseCsvTable("x,y\n1,2\n3,4\n", {"x", "y"}, "test.csv");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTableTest, RejectsWrongHeader) {
  auto rows = ParseCsvTable("a,b\n1,2\n", {"x", "y"}, "test.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("test.csv"), std::string::npos);
}

TEST(CsvTableTest, RejectsEmptyInput) {
  auto rows = ParseCsvTable("", {"x", "y"}, "test.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTableTest, RaggedRowIsAnErrorWithRowContext) {
  // A short row used to be silently accepted by schemaless readers; the
  // table layer must name the file and the offending row instead.
  auto rows = ParseCsvTable("x,y\n1,2\n3\n5,6\n", {"x", "y"}, "poison.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("poison.csv"), std::string::npos);
  EXPECT_NE(rows.status().message().find("row 3"), std::string::npos)
      << rows.status().message();

  auto wide = ParseCsvTable("x,y\n1,2,3\n", {"x", "y"}, "wide.csv");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTableTest, ReadCsvTableCarriesPathContext) {
  std::string path = ::testing::TempDir() + "/stmaker_table_ragged.csv";
  ASSERT_TRUE(WriteFileToPath(path, "x,y\n1\n").ok());
  auto rows = ReadCsvTable(path, {"x", "y"});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find(path), std::string::npos);

  auto missing = ReadCsvTable("/nonexistent_dir_zz/t.csv", {"x", "y"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// CRC-32
// --------------------------------------------------------------------------

/// The bytewise table-driven CRC-32 that the slice-by-8 Crc32 replaced,
/// kept as the reference it must agree with.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Seeded continuation over a split is the checksum of the whole.
  EXPECT_EQ(Crc32("56789", Crc32("1234")), 0xCBF43926u);
}

TEST(Crc32Test, AgreesWithBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..1024 from every start offset 0..7 covers each
  // alignment of the 8-byte loop and each tail length, unseeded and
  // seeded (a fixed seed and a continuation of the preceding bytes).
  Random rng(77);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint32_t prefix_crc =
        BytewiseCrc32(std::string_view(buffer.data(), offset), 0);
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(data, 0xDEADBEEFu), BytewiseCrc32(data, 0xDEADBEEFu))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(data, prefix_crc), BytewiseCrc32(data, prefix_crc))
          << "offset " << offset << " len " << len;
    }
  }
}

// --------------------------------------------------------------------------
// File utilities
// --------------------------------------------------------------------------

TEST(FileUtilTest, AtomicWriteLeavesNoTempOnSuccess) {
  std::string path = ::testing::TempDir() + "/stmaker_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "hello").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(FileUtilTest, ReadMissingFileIsIoError) {
  auto content = ReadFileToString("/nonexistent_dir_zz/nope.txt");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace stmaker
