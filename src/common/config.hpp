// A tiny typed key-value store used to override scenario parameters from
// the command line ("key=value" strings) without pulling in a
// configuration-file dependency.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace charisma::common {

class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  /// Parses "key=value" tokens; throws std::invalid_argument on malformed
  /// input. Later duplicates win.
  static KeyValueConfig from_args(const std::vector<std::string>& args);

  void set(const std::string& key, const std::string& value);

  std::optional<std::string> get_string(const std::string& key) const;
  /// Throws std::invalid_argument naming `key` for a malformed number and
  /// for NaN or ±inf, which no knob means.
  std::optional<double> get_double(const std::string& key) const;
  std::optional<int> get_int(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;

  /// Like get_int but accepts magnitude suffixes for population-sized
  /// values: "250k" = 250'000, "1M" = 1'000'000 (k/K and m/M). The numeric
  /// part may be fractional ("2.5k" = 2500); the scaled value must land on
  /// an integer. Throws std::invalid_argument naming `key` on an unknown
  /// suffix or malformed number.
  std::optional<long long> get_count(const std::string& key) const;

  double get_double_or(const std::string& key, double fallback) const;
  int get_int_or(const std::string& key, int fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;
  long long get_count_or(const std::string& key, long long fallback) const;
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;

  /// Throws std::invalid_argument naming the first key (in sorted order)
  /// that is not in `known`. Front-ends call this after parsing argv so a
  /// typo ("voice_user=80") fails loudly instead of silently using the
  /// default.
  void reject_unknown(const std::vector<std::string>& known) const;

  bool contains(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }
  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace charisma::common
