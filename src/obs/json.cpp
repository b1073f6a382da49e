#include "obs/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace apf::obs {

std::string jsonEscape(std::string_view s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  // %.17g round-trips doubles; trim to the shortest form that still does.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void JsonObjectWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += jsonEscape(k);
  body_ += "\":";
}

void JsonObjectWriter::field(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  body_ += jsonEscape(v);
  body_ += '"';
}

void JsonObjectWriter::field(std::string_view k, const char* v) {
  field(k, std::string_view(v));
}

void JsonObjectWriter::field(std::string_view k, double v) {
  key(k);
  body_ += jsonNumber(v);
}

void JsonObjectWriter::field(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObjectWriter::field(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObjectWriter::field(std::string_view k, int v) {
  field(k, static_cast<std::int64_t>(v));
}

void JsonObjectWriter::field(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
}

void JsonObjectWriter::rawField(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
}

std::string JsonObjectWriter::str() const { return "{" + body_ + "}"; }

namespace {

void skipWs(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

bool parseString(std::string_view s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') return true;
    if (c == '\\') {
      if (i >= s.size()) return false;
      const char e = s[i++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (i + 4 > s.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // Telemetry only escapes control characters, so a one-byte
          // mapping is enough; other code points pass through UTF-8 raw.
          out += static_cast<char>(code & 0xFF);
          break;
        }
        default:
          return false;
      }
    } else {
      out += c;
    }
  }
  return false;
}

bool parseValue(std::string_view s, std::size_t& i, JsonValue& out) {
  skipWs(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '"') {
    out.kind = JsonValue::Kind::String;
    return parseString(s, i, out.string);
  }
  if (c == 't' && s.substr(i, 4) == "true") {
    out.kind = JsonValue::Kind::Bool;
    out.boolean = true;
    i += 4;
    return true;
  }
  if (c == 'f' && s.substr(i, 5) == "false") {
    out.kind = JsonValue::Kind::Bool;
    out.boolean = false;
    i += 5;
    return true;
  }
  if (c == 'n' && s.substr(i, 4) == "null") {
    out.kind = JsonValue::Kind::Null;
    i += 4;
    return true;
  }
  if (c == '-' || (c >= '0' && c <= '9')) {
    std::size_t j = i;
    while (j < s.size() && (s[j] == '-' || s[j] == '+' || s[j] == '.' ||
                            s[j] == 'e' || s[j] == 'E' ||
                            (s[j] >= '0' && s[j] <= '9'))) {
      ++j;
    }
    const std::string tok(s.substr(i, j - i));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return false;
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    out.string = tok;  // raw token, so 64-bit integers survive exactly
    i = j;
    return true;
  }
  return false;  // not a scalar
}

// Recursive-descent parser for the general tree form. Depth is bounded to
// keep adversarial inputs from exhausting the stack; the documents this
// repository reads are at most three levels deep.
constexpr int kMaxDepth = 64;

bool parseNode(std::string_view s, std::size_t& i, JsonNode& out, int depth) {
  if (depth > kMaxDepth) return false;
  skipWs(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '{') {
    ++i;
    out.kind = JsonNode::Kind::Object;
    skipWs(s, i);
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      skipWs(s, i);
      std::string key;
      if (!parseString(s, i, key)) return false;
      skipWs(s, i);
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      JsonNode value;
      if (!parseNode(s, i, value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skipWs(s, i);
      if (i >= s.size()) return false;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      if (s[i] == '}') {
        ++i;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++i;
    out.kind = JsonNode::Kind::Array;
    skipWs(s, i);
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      JsonNode item;
      if (!parseNode(s, i, item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skipWs(s, i);
      if (i >= s.size()) return false;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      if (s[i] == ']') {
        ++i;
        return true;
      }
      return false;
    }
  }
  JsonValue scalar;
  if (!parseValue(s, i, scalar)) return false;
  switch (scalar.kind) {
    case JsonValue::Kind::Null:
      out.kind = JsonNode::Kind::Null;
      break;
    case JsonValue::Kind::Bool:
      out.kind = JsonNode::Kind::Bool;
      out.boolean = scalar.boolean;
      break;
    case JsonValue::Kind::Number:
      out.kind = JsonNode::Kind::Number;
      out.number = scalar.number;
      out.string = std::move(scalar.string);  // raw token
      break;
    case JsonValue::Kind::String:
      out.kind = JsonNode::Kind::String;
      out.string = std::move(scalar.string);
      break;
  }
  return true;
}

}  // namespace

const JsonNode* JsonNode::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonNode::asU64(std::uint64_t fallback) const {
  if (kind != Kind::Number || string.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(string.c_str(), &end, 10);
  if (errno != 0 || end != string.c_str() + string.size()) return fallback;
  return static_cast<std::uint64_t>(v);
}

namespace {

// Built by appends: GCC 12 false-fires -Wrestrict on "literal" + string
// chains at -O3.
[[noreturn]] void keyError(const std::string& what, std::string_view key,
                           const char* problem) {
  std::string msg = what;
  msg += ": key \"";
  msg += key;
  msg += "\" ";
  msg += problem;
  throw std::runtime_error(msg);
}

}  // namespace

const JsonNode& requireMember(const JsonNode& obj, std::string_view key,
                              JsonNode::Kind kind, const std::string& what) {
  const JsonNode* v = obj.find(key);
  if (v == nullptr) keyError(what, key, "is missing");
  if (v->kind != kind) keyError(what, key, "has the wrong type");
  return *v;
}

std::uint64_t requireU64(const JsonNode& obj, std::string_view key,
                         const std::string& what) {
  const JsonNode& v = requireMember(obj, key, JsonNode::Kind::Number, what);
  if (v.string.empty() ||
      v.string.find_first_not_of("0123456789") != std::string::npos) {
    keyError(what, key, "is not an unsigned integer");
  }
  return v.asU64();
}

void rejectUnknownKeys(const JsonNode& obj,
                       std::span<const std::string_view> known,
                       const std::string& what) {
  for (const auto& [key, value] : obj.members) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      keyError(what, key, "is unknown");
    }
  }
}

std::optional<JsonNode> parseJson(std::string_view text) {
  std::size_t i = 0;
  JsonNode root;
  if (!parseNode(text, i, root, 0)) return std::nullopt;
  skipWs(text, i);
  if (i != text.size()) return std::nullopt;
  return root;
}

std::optional<JsonObject> parseFlatObject(std::string_view text) {
  std::optional<JsonNode> root = parseJson(text);
  if (!root || root->kind != JsonNode::Kind::Object) return std::nullopt;
  JsonObject obj;
  for (auto& [key, node] : root->members) {
    JsonValue value;
    switch (node.kind) {
      case JsonNode::Kind::Null:
        value.kind = JsonValue::Kind::Null;
        break;
      case JsonNode::Kind::Bool:
        value.kind = JsonValue::Kind::Bool;
        break;
      case JsonNode::Kind::Number:
        value.kind = JsonValue::Kind::Number;
        break;
      case JsonNode::Kind::String:
        value.kind = JsonValue::Kind::String;
        break;
      case JsonNode::Kind::Array:
      case JsonNode::Kind::Object:
        return std::nullopt;  // the dialect is flat
    }
    value.boolean = node.boolean;
    value.number = node.number;
    value.string = std::move(node.string);  // a Number's raw token
    obj[std::move(key)] = std::move(value);  // the last duplicate wins
  }
  return obj;
}

}  // namespace apf::obs
