#pragma once

/// \file json.h
/// Minimal JSON support for the observability layer: an escaping writer for
/// single-line (JSONL) objects and a parser for the *flat* objects this
/// repository emits (string / number / bool values, no nesting). Both ends
/// of the telemetry pipe — sinks in `recorder.h` / `manifest.h` and the
/// `apf_report` aggregator — go through this file, so the dialect stays
/// consistent by construction.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apf::obs {

/// Escapes a string for inclusion inside JSON double quotes.
std::string jsonEscape(std::string_view s);

/// Formats a double as a JSON number (shortest round-trip form; never
/// produces NaN/Inf — those are clamped to 0, JSON has no spelling for
/// them).
std::string jsonNumber(double v);

/// Incrementally builds one single-line JSON object.
class JsonObjectWriter {
 public:
  void field(std::string_view key, std::string_view value);  ///< string
  void field(std::string_view key, const char* value);       ///< string
  void field(std::string_view key, double value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, int value);
  void field(std::string_view key, bool value);
  /// Value already encoded as JSON (nested object, array, ...).
  void rawField(std::string_view key, std::string_view json);

  /// Returns `{"k":v,...}`. The writer may keep being appended to.
  std::string str() const;

 private:
  void key(std::string_view k);
  std::string body_;
};

/// One parsed scalar value of a flat JSON object.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  double asNumber(double fallback = 0.0) const {
    return kind == Kind::Number ? number : fallback;
  }
  std::string asString(const std::string& fallback = "") const {
    return kind == Kind::String ? string : fallback;
  }
  bool asBool(bool fallback = false) const {
    return kind == Kind::Bool ? boolean : fallback;
  }
};

using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// Parses one flat JSON object (`{"k": <scalar>, ...}`). Nested objects and
/// arrays are rejected (returns nullopt) — the telemetry dialect is flat on
/// purpose so every consumer stays trivial.
std::optional<JsonObject> parseFlatObject(std::string_view text);

/// One node of a fully general JSON document. The flat dialect above stays
/// the interchange format for manifests and event logs; this tree form
/// exists for the few documents that are nested by their schema — scenarios
/// with their fault plans (campaign keys and repro files; sim/scenario.h) and
/// Chrome trace-event files (validated structurally by tests).
struct JsonNode {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String value — or, for Number nodes produced by parseJson, the raw
  /// source token (so 64-bit integers can be recovered without the 2^53
  /// double rounding; see asU64).
  std::string string;
  std::vector<JsonNode> items;  ///< Array elements, in order.
  /// Object members, in document order (duplicate keys are kept).
  std::vector<std::pair<std::string, JsonNode>> members;

  /// First member with `key`, or nullptr (objects only).
  const JsonNode* find(std::string_view key) const;
  double asNumber(double fallback = 0.0) const {
    return kind == Kind::Number ? number : fallback;
  }
  std::string asString(const std::string& fallback = "") const {
    return kind == Kind::String ? string : fallback;
  }
  bool asBool(bool fallback = false) const {
    return kind == Kind::Bool ? boolean : fallback;
  }
  /// Exact unsigned 64-bit read of a Number node (via the raw token);
  /// `fallback` for non-numbers and tokens that are not plain unsigned
  /// integers.
  std::uint64_t asU64(std::uint64_t fallback = 0) const;
};

/// Parses an arbitrary JSON document (object/array/scalar root, any
/// nesting). Returns nullopt on malformed input or trailing garbage.
std::optional<JsonNode> parseJson(std::string_view text);

/// Strict readers for documents whose every key matters. Each throws
/// std::runtime_error prefixed with `what`: requireMember when member `key`
/// of `obj` is missing or not of `kind`, requireU64 also when it is not a
/// plain unsigned integer, rejectUnknownKeys on a key outside `known`.
const JsonNode& requireMember(const JsonNode& obj, std::string_view key,
                              JsonNode::Kind kind, const std::string& what);
std::uint64_t requireU64(const JsonNode& obj, std::string_view key,
                         const std::string& what);
void rejectUnknownKeys(const JsonNode& obj,
                       std::span<const std::string_view> known,
                       const std::string& what);

}  // namespace apf::obs
