#include "common/csv.h"

#include <cstdio>
#include <utility>

#include "common/fileutil.h"
#include "common/strings.h"

namespace stmaker {

namespace {

bool NeedsQuoting(const std::string& field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string FormatCsvRow(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += NeedsQuoting(fields[i]) ? QuoteField(fields[i]) : fields[i];
  }
  line += '\n';
  return line;
}

Result<CsvWriter> CsvWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return CsvWriter(f);
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("CSV writer is closed");
  }
  std::string line = FormatCsvRow(fields);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IoError("short write");
  }
  return Status::OK();
}

Status CsvWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed");
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text) {
  struct RowSink {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    void Field(std::string& field) { row.push_back(std::move(field)); }
    void EndRow() { rows.push_back(std::exchange(row, {})); }
  } sink;
  STMAKER_RETURN_IF_ERROR(TokenizeCsv(text, sink));
  return std::move(sink.rows);
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsv(text);
}

Result<std::vector<std::vector<std::string>>> ParseCsvTable(
    const std::string& text, const std::vector<std::string>& expected_header,
    const std::string& context) {
  STMAKER_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty()) {
    return Status::InvalidArgument(context + ": missing CSV header (want '" +
                                   Join(expected_header, ",") + "')");
  }
  if (rows[0] != expected_header) {
    return Status::InvalidArgument(context + ": bad CSV header '" +
                                   Join(rows[0], ",") + "' (want '" +
                                   Join(expected_header, ",") + "')");
  }
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != expected_header.size()) {
      return Status::InvalidArgument(StrFormat(
          "%s: row %zu has %zu fields, want %zu", context.c_str(), r + 1,
          rows[r].size(), expected_header.size()));
    }
  }
  rows.erase(rows.begin());
  return rows;
}

Result<std::vector<std::vector<std::string>>> ReadCsvTable(
    const std::string& path,
    const std::vector<std::string>& expected_header) {
  STMAKER_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsvTable(text, expected_header, path);
}

}  // namespace stmaker
