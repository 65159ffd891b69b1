#include "flow/journal.hpp"

#include <cmath>
#include <cstdio>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace serelin {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  SERELIN_ASSERT(!closed_, "JsonObject modified after str()");
  body_ += body_.empty() ? "{" : ",";
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
  body_ += json;
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  return raw(key, '"' + json_escape(value) + '"');
}

JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

JsonObject& JsonObject::set(const std::string& key, double value) {
  if (!std::isfinite(value)) return raw(key, "null");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return raw(key, buf);
}

JsonObject& JsonObject::set(const std::string& key, std::int64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::set(const std::string& key, int value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::set(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::set_json(const std::string& key,
                                 const std::string& json) {
  return raw(key, json);
}

const std::string& JsonObject::str() const {
  if (!closed_) {
    body_ += body_.empty() ? "{}" : "}";
    closed_ = true;
  }
  return body_;
}

std::optional<std::string> json_string_field(const std::string& record,
                                             const std::string& key) {
  const std::string needle = '"' + json_escape(key) + "\":\"";
  const std::size_t at = record.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = at + needle.size(); i < record.size(); ++i) {
    const char c = record[i];
    if (c == '"') return out;
    if (c == '\\' && i + 1 < record.size()) {
      const char e = record[++i];
      switch (e) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          // \u00XX — JsonObject only emits control bytes this way.
          if (i + 4 < record.size()) {
            const auto hex = [](char h) {
              return h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10;
            };
            out += static_cast<char>(hex(record[i + 3]) * 16 +
                                     hex(record[i + 4]));
            i += 4;
          }
          break;
        default: out += e; break;
      }
    } else {
      out += c;
    }
  }
  return std::nullopt;  // unterminated string: not a field we wrote
}

RunJournal::RunJournal(const std::string& path, JournalWriter::Mode mode)
    : writer_(path, mode) {}

void RunJournal::write(const JsonObject& obj) {
  if (observer_) observer_(obj.str());
  if (!writer_.enabled() || !writer_.healthy()) return;
  SERELIN_COUNT(kJournalWrites, 1);
  writer_.append(obj.str());
}

}  // namespace serelin
