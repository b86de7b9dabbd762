// A small typed key-value configuration store.
//
// Bench binaries and examples accept "key=value" command-line overrides; this
// class parses and validates them. Keys are free-form strings; values are
// stored as strings and converted on access with strict validation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gnoc {

/// Ordered key-value configuration with typed accessors.
class Config {
 public:
  Config() = default;

  /// Parses newline/space separated "key=value" pairs. Lines starting with
  /// '#' are comments. Throws std::invalid_argument on malformed tokens
  /// (no '=' or an empty key) — a typo must fail loudly, not silently
  /// become a bool.
  static Config FromString(const std::string& text);

  /// Reads and parses a config file (FromString format). Throws
  /// std::runtime_error when unreadable, std::invalid_argument when
  /// malformed.
  static Config FromFile(const std::string& path);

  /// Replaces every occurrence of `key` with the single `value`.
  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, std::int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  /// Records one more occurrence of `key`. Scalar getters keep last-wins
  /// semantics; GetList sees every occurrence in order. Repeatable flags
  /// (e.g. qos_class=) are parsed with this.
  void Append(const std::string& key, const std::string& value);

  bool Contains(const std::string& key) const;

  /// Typed getters: return `fallback` when the key is absent and throw
  /// std::invalid_argument when present but malformed.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Every occurrence of `key` in insertion order (empty when absent).
  std::vector<std::string> GetList(const std::string& key) const;

  /// Merges `other` into this config; keys in `other` win, replacing all
  /// occurrences of the key at once (a CLI qos_class= list supersedes a
  /// config-file list rather than appending to it).
  void Merge(const Config& other);

  /// Keys in insertion order.
  const std::vector<std::string>& keys() const { return order_; }

  /// Renders "key=value" lines in insertion order. Because Merge keeps the
  /// first-seen position of every key, a merged config round-trips with
  /// its precedence visible: file-provided keys print where the file set
  /// them, with later (command-line) values already substituted in place.
  std::string ToString() const;

 private:
  // Invariant: values_[k] == lists_[k].back() for every present key, so
  // the scalar getters stay last-wins while GetList sees every occurrence.
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> lists_;
  std::vector<std::string> order_;
};

}  // namespace gnoc
