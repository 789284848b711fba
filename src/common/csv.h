#ifndef STMAKER_COMMON_CSV_H_
#define STMAKER_COMMON_CSV_H_

/// \file
/// CSV formatting, parsing, and streaming writers shared by all
/// persistence code.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stmaker {

/// Renders one CSV row (trailing newline included). Fields containing
/// commas, quotes, or newlines are quoted per RFC 4180.
std::string FormatCsvRow(const std::vector<std::string>& fields);

/// \brief Minimal CSV writer used to persist generated datasets (trajectory
/// corpora, landmark tables) and benchmark series. Fields containing commas,
/// quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing, truncating any existing file.
  static Result<CsvWriter> Open(const std::string& path);

  CsvWriter(CsvWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  CsvWriter& operator=(CsvWriter&& other) noexcept {
    if (this != &other) {
      if (file_ != nullptr) std::fclose(file_);
      file_ = other.file_;
      other.file_ = nullptr;
    }
    return *this;
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;
  ~CsvWriter();

  /// Writes one row; flushes on Close/destruction.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Flushes and closes the file; further writes fail.
  Status Close();

 private:
  explicit CsvWriter(std::FILE* file) : file_(file) {}

  std::FILE* file_;
};

/// \brief Splits CSV `text` into fields and rows per RFC 4180 — the one
/// tokenizer behind ParseCsv and the streaming trajectory reader.
///
/// Calls `sink.Field(std::string& field)` as each field ends (the buffer
/// is reused afterwards: copy or move out of it) and `sink.EndRow()` after
/// each row's last field. Doubled quotes inside a quoted field are one
/// quote, a quote anywhere outside one opens quoting, and CR outside
/// quotes is dropped (CRLF tolerant). The final newline is optional;
/// empty input yields no rows.
/// \return OK, or kInvalidArgument when the text ends inside a quoted
///   field — reported after every complete row was delivered.
template <typename Sink>
Status TokenizeCsv(std::string_view text, Sink& sink) {
  std::string field;
  bool in_quotes = false;
  bool row_started = false;  // the current row holds a field or a byte
  const size_t n = text.size();
  for (size_t i = 0; i < n;) {
    if (in_quotes) {
      const char* quote =
          static_cast<const char*>(std::memchr(text.data() + i, '"', n - i));
      const size_t at = quote == nullptr ? n : quote - text.data();
      field.append(text.data() + i, at - i);
      if (at == n) break;
      if (at + 1 < n && text[at + 1] == '"') {
        field += '"';
        i = at + 2;
      } else {
        in_quotes = false;
        i = at + 1;
      }
      continue;
    }
    switch (text[i]) {
      case '"':
        in_quotes = true;
        row_started = true;
        ++i;
        break;
      case ',':
        sink.Field(field);
        field.clear();
        row_started = true;
        ++i;
        break;
      case '\r':
        ++i;
        break;
      case '\n':
        sink.Field(field);
        field.clear();
        sink.EndRow();
        row_started = false;
        ++i;
        break;
      default: {
        size_t end = i + 1;
        while (end < n && text[end] != '"' && text[end] != ',' &&
               text[end] != '\r' && text[end] != '\n') {
          ++end;
        }
        field.append(text.data() + i, end - i);
        row_started = true;
        i = end;
      }
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (row_started) {
    sink.Field(field);
    sink.EndRow();
  }
  return Status::OK();
}

/// Parses CSV text into rows of fields, honoring RFC 4180 quoting.
/// The final newline is optional; empty input yields no rows. Rows may be
/// ragged at this layer; schema-aware callers should use ParseCsvTable /
/// ReadCsvTable, which reject them.
Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text);

/// \brief Parses CSV `text` as a rectangular table: the first row must
/// equal `expected_header`, and every data row must have exactly the header
/// width — short, long, or ragged rows fail with kInvalidArgument carrying
/// `context` (typically the file path) and the 1-based row number.
/// Returns the data rows (header removed).
Result<std::vector<std::vector<std::string>>> ParseCsvTable(
    const std::string& text, const std::vector<std::string>& expected_header,
    const std::string& context);

/// Reads `path` and parses it with ParseCsvTable (context = path).
Result<std::vector<std::vector<std::string>>> ReadCsvTable(
    const std::string& path,
    const std::vector<std::string>& expected_header);

}  // namespace stmaker

#endif  // STMAKER_COMMON_CSV_H_
