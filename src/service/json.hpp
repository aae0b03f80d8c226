#pragma once

#include <cstddef>
#include <map>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_text.hpp"

/// \file json.hpp
/// A minimal JSON value and a non-throwing, depth-limited parser.
///
/// The what-if daemon speaks newline-delimited JSON with untrusted peers,
/// so the parser must survive anything a socket can deliver: truncated
/// documents, deep nesting bombs, stray bytes after the value.  parse()
/// therefore never throws — it returns an empty optional-style Value with
/// an error string — and refuses documents nested deeper than kMaxDepth.
///
/// Writing goes through JsonWriter, which mirrors the repo's hand-rolled
/// report idiom (grid/report.cpp): escaped strings, %.6g numbers, ordered
/// keys — so two equal inputs serialize byte-identically, which the
/// service's purity property test depends on.

namespace istc::service {

/// An immutable parsed JSON value.  Requests only ever look members up by
/// name (never iterate), so a std::map keeps it simple.
class Value {
 public:
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  // Typed member accessors with defaults (missing or wrong type -> def).
  double num_or(std::string_view key, double def) const;
  std::string str_or(std::string_view key, std::string_view def) const;
  bool bool_or(std::string_view key, bool def) const;
};

/// Parse outcome: ok() iff the whole input was one valid JSON value.
struct ParseResult {
  Value value;
  std::string error;  ///< empty on success
  bool ok() const { return error.empty(); }
};

/// Nesting bound: a request deeper than this is rejected, not recursed
/// into (stack safety against `[[[[...` bombs from the socket).
inline constexpr std::size_t kMaxDepth = 32;

/// Parse one JSON document.  Never throws; trailing whitespace is allowed,
/// trailing non-whitespace is an error.
ParseResult parse(std::string_view text);

/// Append-only JSON writer with deterministic formatting.
class JsonWriter {
 public:
  std::string take() { return std::move(out_); }
  const std::string& str() const { return out_; }

  void begin_object() { out_ += '{'; first_ = true; }
  void end_object() { out_ += '}'; first_ = false; }
  void begin_array() { out_ += '['; first_ = true; }
  void end_array() { out_ += ']'; first_ = false; }

  /// Start a member: emits the separating comma and the escaped key.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);

  /// Element separator for arrays of values.
  void comma();

  template <class T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

 private:
  std::string out_;
  bool first_ = true;
};

// The repo's one escaper and number format (util/json_text.hpp), under
// the names the service's callers already use.
using util::format_double;
using util::json_escape;

}  // namespace istc::service
