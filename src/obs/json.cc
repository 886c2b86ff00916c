#include "src/obs/json.h"

#include <cmath>
#include <cstdio>

namespace oodgnn {
namespace obs {

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // %.17g round-trips every double; integral values print without the
  // exponent noise of %e.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void AppendKey(std::string* body, const std::string& key) {
  if (!body->empty()) body->push_back(',');
  *body += JsonQuote(key);
  body->push_back(':');
}

}  // namespace

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key, double v) {
  AppendKey(&body_, key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key,
                                        std::int64_t v) {
  AppendKey(&body_, key);
  body_ += std::to_string(v);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key, int v) {
  return Put(key, static_cast<std::int64_t>(v));
}

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key, bool v) {
  AppendKey(&body_, key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key,
                                        const std::string& v) {
  AppendKey(&body_, key);
  body_ += JsonQuote(v);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Put(const std::string& key,
                                        const char* v) {
  return Put(key, std::string(v));
}

JsonObjectWriter& JsonObjectWriter::PutRaw(const std::string& key,
                                           const std::string& raw_json) {
  AppendKey(&body_, key);
  body_ += raw_json;
  return *this;
}

std::string JsonObjectWriter::Build() const { return "{" + body_ + "}"; }

}  // namespace obs
}  // namespace oodgnn
