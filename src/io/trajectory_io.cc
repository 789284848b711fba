#include "io/trajectory_io.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "common/csv.h"
#include "common/fileutil.h"
#include "common/strings.h"

namespace stmaker {

namespace {

// Both parsers accept exactly what strtod/strtoll accept when they consume
// the whole field (leading blanks, '+', hex, nan payloads included):
// std::from_chars answers the plain decimal fields of a written corpus,
// and anything it does not take completely goes through the C parser.
// Both are correctly rounded, so the fast path never changes a value.

Result<double> ParseDouble(const std::string& field) {
  double v = 0;
  const char* last = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), last, v);
  if (ec == std::errc() && ptr == last && std::isfinite(v)) return v;
  char* end = nullptr;
  v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + field + "'");
  }
  return v;
}

Result<int64_t> ParseInt(const std::string& field) {
  long long v = 0;
  const char* last = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), last, v);
  if (ec == std::errc() && ptr == last) return static_cast<int64_t>(v);
  char* end = nullptr;
  v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + field + "'");
  }
  return static_cast<int64_t>(v);
}

/// TokenizeCsv sink that turns trajectories.csv rows into the corpus as
/// they stream past, holding one row's values rather than the whole table.
/// Errors keep the precedence of a parse-everything-then-check reader: an
/// unterminated quote (the tokenizer's), then a missing or bad header,
/// then the first ragged row, then the first bad value or interleaved id
/// in row order — so later rows are still scanned for layout errors after
/// a value error.
class CorpusSink {
 public:
  explicit CorpusSink(const std::string& path) : path_(path) {}

  void Field(std::string& field) {
    if (row_ == 0) {
      header_.push_back(field);
    } else if (field_ < kWidth && row_error_.ok() && layout_error_.ok() &&
               value_error_.ok()) {
      row_error_ = ParseField(field);
    }
    ++field_;
  }

  void EndRow() {
    ++row_;
    if (row_ == 1) {
      if (header_ != Header()) {
        layout_error_ = Status::InvalidArgument(
            path_ + ": bad CSV header '" + Join(header_, ",") + "' (want '" +
            Join(Header(), ",") + "')");
      }
    } else if (field_ != kWidth) {
      if (layout_error_.ok()) {
        layout_error_ = Status::InvalidArgument(
            StrFormat("%s: row %zu has %zu fields, want %zu", path_.c_str(),
                      row_, field_, kWidth));
      }
    } else if (layout_error_.ok() && value_error_.ok()) {
      value_error_ = row_error_.ok() ? AppendRow() : row_error_;
    }
    field_ = 0;
    row_error_ = Status::OK();
  }

  Result<std::vector<RawTrajectory>> Finish() {
    if (row_ == 0) {
      return Status::InvalidArgument(path_ + ": missing CSV header (want '" +
                                     Join(Header(), ",") + "')");
    }
    STMAKER_RETURN_IF_ERROR(layout_error_);
    STMAKER_RETURN_IF_ERROR(value_error_);
    return std::move(out_);
  }

 private:
  static constexpr size_t kWidth = 5;

  static const std::vector<std::string>& Header() {
    static const std::vector<std::string> header = {
        "trajectory_id", "traveler", "x", "y", "time"};
    return header;
  }

  Status ParseField(const std::string& field) {
    if (field_ < 2) {
      STMAKER_ASSIGN_OR_RETURN(ints_[field_], ParseInt(field));
    } else {
      STMAKER_ASSIGN_OR_RETURN(reals_[field_ - 2], ParseDouble(field));
    }
    return Status::OK();
  }

  // Trajectories are contiguous runs of one id; an id that comes back
  // after another one started is interleaved.
  Status AppendRow() {
    const int64_t id = ints_[0];
    if (out_.empty() || id != current_id_) {
      if (!seen_ids_.insert(id).second) {
        return Status::InvalidArgument(StrFormat(
            "trajectory id %lld is interleaved", static_cast<long long>(id)));
      }
      out_.emplace_back();
      current_id_ = id;
    }
    out_.back().traveler = ints_[1];
    out_.back().samples.push_back({{reals_[0], reals_[1]}, reals_[2]});
    return Status::OK();
  }

  const std::string& path_;
  std::vector<std::string> header_;
  size_t row_ = 0;    ///< Rows ended so far; the header is row 1.
  size_t field_ = 0;  ///< Fields ended in the current row.
  int64_t ints_[2] = {};   ///< trajectory_id, traveler of the current row.
  double reals_[3] = {};   ///< x, y, time of the current row.
  Status row_error_;     ///< First bad value of the current row.
  Status layout_error_;  ///< First bad header or ragged row.
  Status value_error_;   ///< First bad value or interleaved id.
  int64_t current_id_ = 0;
  std::unordered_set<int64_t> seen_ids_;
  std::vector<RawTrajectory> out_;
};

}  // namespace

Status WriteTrajectoriesCsv(const std::string& path,
                            const std::vector<RawTrajectory>& trajectories) {
  STMAKER_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  STMAKER_RETURN_IF_ERROR(
      writer.WriteRow({"trajectory_id", "traveler", "x", "y", "time"}));
  for (size_t t = 0; t < trajectories.size(); ++t) {
    const RawTrajectory& trajectory = trajectories[t];
    for (const RawSample& s : trajectory.samples) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(t), std::to_string(trajectory.traveler),
           StrFormat("%.3f", s.pos.x), StrFormat("%.3f", s.pos.y),
           StrFormat("%.3f", s.time)}));
    }
  }
  return writer.Close();
}

Result<std::vector<RawTrajectory>> ReadTrajectoriesCsv(
    const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  CorpusSink sink(path);
  STMAKER_RETURN_IF_ERROR(TokenizeCsv(text, sink));
  return sink.Finish();
}

}  // namespace stmaker
