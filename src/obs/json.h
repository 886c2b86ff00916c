#ifndef OODGNN_OBS_JSON_H_
#define OODGNN_OBS_JSON_H_

#include <cstdint>
#include <string>

namespace oodgnn {
namespace obs {

/// `s` as a JSON string literal, quotes included (control characters
/// and '"'/'\\' escaped).
std::string JsonQuote(const std::string& s);

/// `v` as a JSON number. NaN and ±infinity — which JSON cannot
/// represent — serialize as null.
std::string JsonNumber(double v);

/// Incrementally builds one JSON object, insertion-ordered. The
/// instrumentation layer emits only objects of scalars (plus nested
/// objects via PutRaw), so this covers the whole journal/metrics
/// surface without a DOM.
class JsonObjectWriter {
 public:
  JsonObjectWriter& Put(const std::string& key, double v);
  JsonObjectWriter& Put(const std::string& key, std::int64_t v);
  JsonObjectWriter& Put(const std::string& key, int v);
  JsonObjectWriter& Put(const std::string& key, bool v);
  JsonObjectWriter& Put(const std::string& key, const std::string& v);
  JsonObjectWriter& Put(const std::string& key, const char* v);
  /// Inserts `raw_json` verbatim as the value (must itself be valid
  /// JSON — typically a nested object or array).
  JsonObjectWriter& PutRaw(const std::string& key, const std::string& raw_json);

  /// The finished object, e.g. {"epoch":3,"loss":0.25}.
  std::string Build() const;

 private:
  std::string body_;
};

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_JSON_H_
