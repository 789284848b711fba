#include "io/json.h"

#include <cmath>

#include "common/strings.h"

namespace stmaker {

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_stack_.empty()) {
    if (need_comma_stack_.back() == '1') {
      out_ += ',';
    } else {
      need_comma_stack_.back() = '1';
    }
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  need_comma_stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  if (!need_comma_stack_.empty()) need_comma_stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  need_comma_stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  if (!need_comma_stack_.empty()) need_comma_stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  MaybeComma();
  if (std::isfinite(value)) {
    out_ += FormatNumber(value, 6);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

Result<bool> NdjsonReader::Next(std::string* line) {
  line->clear();
  std::streambuf* sb = in_->rdbuf();
  int ch;
  while ((ch = sb->sbumpc()) != std::char_traits<char>::eof()) {
    if (ch == '\n') {
      ++lines_read_;
      return true;
    }
    if (line->size() >= max_line_bytes_) {
      // Discard through the next newline so the stream re-syncs; the
      // buffer never grows past the cap no matter how long the line is.
      size_t discarded = line->size();
      line->clear();
      line->shrink_to_fit();
      while ((ch = sb->sbumpc()) != std::char_traits<char>::eof()) {
        ++discarded;
        if (ch == '\n') break;
      }
      ++oversized_lines_;
      return Status::InvalidArgument(
          StrFormat("NDJSON line exceeds %zu bytes (%zu read); line dropped",
                    max_line_bytes_, discarded));
    }
    line->push_back(static_cast<char>(ch));
  }
  if (!line->empty()) {
    // EOF in the middle of a line: the producer was cut off. Surfacing a
    // fragment as a request would half-process a truncated write.
    size_t partial = line->size();
    line->clear();
    return Status::InvalidArgument(StrFormat(
        "NDJSON stream ends mid-line (%zu bytes without a newline)",
        partial));
  }
  return false;
}

}  // namespace stmaker
