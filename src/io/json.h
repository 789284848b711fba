#ifndef STMAKER_IO_JSON_H_
#define STMAKER_IO_JSON_H_

/// \file
/// Minimal streaming JSON emitter and a bounded NDJSON line reader.

#include <cstddef>
#include <istream>
#include <string>

#include "common/status.h"

namespace stmaker {

/// \brief Minimal streaming JSON emitter.
///
/// Produces compact, valid JSON; the caller drives structure with
/// BeginObject/BeginArray and Key/value calls, and the emitter handles
/// commas and string escaping. No validation of call order is attempted
/// beyond what the comma logic needs — this is an output-only utility for
/// serializing summaries and bench results.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(const std::string& name);

  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(long long value);

  /// The document so far.
  const std::string& str() const { return out_; }

  /// Escapes a string for inclusion in a JSON document (without the
  /// surrounding quotes).
  static std::string Escape(const std::string& raw);

 private:
  void MaybeComma();

  std::string out_;
  /// Whether a comma is needed before the next value at the current
  /// nesting level; one bit per level, topmost = current.
  std::string need_comma_stack_;
  bool after_key_ = false;
};

/// \brief Bounded reader for newline-delimited JSON (NDJSON) streams.
///
/// Replaces the bare `std::getline` in serve-style loops: a client (or a
/// corrupted file) that sends a multi-megabyte line without a newline must
/// not grow an unbounded buffer. Lines longer than `max_line_bytes` are
/// rejected with kInvalidArgument and *discarded in bounded chunks* through
/// the next newline, so the stream re-synchronizes and subsequent lines
/// still parse. A final line cut off by EOF without its terminator is also
/// rejected — a truncated request must never be half-processed.
class NdjsonReader {
 public:
  /// Matches the TCP front-end's per-connection line cap.
  static constexpr size_t kDefaultMaxLineBytes = 1 << 20;

  /// Reads from `in` (not owned; must outlive the reader).
  explicit NdjsonReader(std::istream* in,
                        size_t max_line_bytes = kDefaultMaxLineBytes)
      : in_(in), max_line_bytes_(max_line_bytes) {}

  /// Fetches the next line (newline stripped) into *line. Returns true on
  /// a line, false at clean EOF, kInvalidArgument for an oversized line
  /// (stream advanced past it) or an unterminated final line.
  Result<bool> Next(std::string* line);

  /// Completed lines returned so far.
  size_t lines_read() const { return lines_read_; }
  /// Oversized lines rejected and skipped so far.
  size_t oversized_lines() const { return oversized_lines_; }

 private:
  std::istream* in_;
  size_t max_line_bytes_;
  size_t lines_read_ = 0;
  size_t oversized_lines_ = 0;
};

}  // namespace stmaker

#endif  // STMAKER_IO_JSON_H_
