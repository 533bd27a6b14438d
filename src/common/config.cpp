#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace charisma::common {

KeyValueConfig KeyValueConfig::from_args(const std::vector<std::string>& args) {
  KeyValueConfig cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("KeyValueConfig: expected key=value, got '" +
                                  arg + "'");
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

std::optional<std::string> KeyValueConfig::get_string(
    const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> KeyValueConfig::get_double(const std::string& key) const {
  auto s = get_string(key);
  if (!s) return std::nullopt;
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(*s, &pos);
    if (pos != s->size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    throw std::invalid_argument("KeyValueConfig: value for '" + key +
                                "' is not a number: '" + *s + "'");
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument("KeyValueConfig: value for '" + key +
                                "' is not finite: '" + *s + "'");
  }
  return v;
}

std::optional<int> KeyValueConfig::get_int(const std::string& key) const {
  auto s = get_string(key);
  if (!s) return std::nullopt;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(*s, &pos);
    if (pos != s->size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("KeyValueConfig: value for '" + key +
                                "' is not an integer: '" + *s + "'");
  }
}

namespace {

// The suffix parser behind get_count; `key` only labels the exception
// message.
long long parse_count(const std::string& key, const std::string& value) {
  const auto fail = [&](const char* what) {
    throw std::invalid_argument("KeyValueConfig: value for '" + key +
                                "' is not a count (" + what + "): '" + value +
                                "'");
  };
  double number = 0.0;
  std::size_t pos = 0;
  try {
    number = std::stod(value, &pos);
  } catch (const std::exception&) {
    fail("not a number");
  }
  double multiplier = 1.0;
  if (pos < value.size()) {
    const std::string suffix = value.substr(pos);
    if (suffix == "k" || suffix == "K") {
      multiplier = 1e3;
    } else if (suffix == "m" || suffix == "M") {
      multiplier = 1e6;
    } else {
      fail("unknown suffix");
    }
  }
  const double scaled = number * multiplier;
  const long long rounded = std::llround(scaled);
  if (scaled != static_cast<double>(rounded)) fail("not an integer");
  return rounded;
}

}  // namespace

std::optional<long long> KeyValueConfig::get_count(
    const std::string& key) const {
  auto s = get_string(key);
  if (!s) return std::nullopt;
  return parse_count(key, *s);
}

std::optional<bool> KeyValueConfig::get_bool(const std::string& key) const {
  auto s = get_string(key);
  if (!s) return std::nullopt;
  std::string lower = *s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  throw std::invalid_argument("KeyValueConfig: value for '" + key +
                              "' is not a boolean: '" + *s + "'");
}

double KeyValueConfig::get_double_or(const std::string& key,
                                     double fallback) const {
  auto v = get_double(key);
  return v ? *v : fallback;
}

int KeyValueConfig::get_int_or(const std::string& key, int fallback) const {
  auto v = get_int(key);
  return v ? *v : fallback;
}

bool KeyValueConfig::get_bool_or(const std::string& key, bool fallback) const {
  auto v = get_bool(key);
  return v ? *v : fallback;
}

long long KeyValueConfig::get_count_or(const std::string& key,
                                       long long fallback) const {
  auto v = get_count(key);
  return v ? *v : fallback;
}

std::string KeyValueConfig::get_string_or(const std::string& key,
                                          const std::string& fallback) const {
  auto v = get_string(key);
  return v ? *v : fallback;
}

void KeyValueConfig::reject_unknown(
    const std::vector<std::string>& known) const {
  for (const auto& [key, value] : entries_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("KeyValueConfig: unknown key '" + key + "'");
    }
  }
}

bool KeyValueConfig::contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

}  // namespace charisma::common
