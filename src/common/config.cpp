#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace gnoc {

namespace {

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void ParseToken(Config& cfg, const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("malformed config token '" + token +
                                "' (expected key=value)");
  }
  const std::string key = Trim(token.substr(0, eq));
  const std::string value = Trim(token.substr(eq + 1));
  if (key.empty()) {
    throw std::invalid_argument("config token has empty key: '" + token + "'");
  }
  cfg.Append(key, value);
}

}  // namespace

Config Config::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read config file: '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return FromString(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("config file '" + path + "': " + e.what());
  }
}

Config Config::FromString(const std::string& text) {
  Config cfg;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) ParseToken(cfg, token);
  }
  return cfg;
}

void Config::Set(const std::string& key, const std::string& value) {
  if (values_.find(key) == values_.end()) order_.push_back(key);
  values_[key] = value;
  lists_[key] = {value};
}

void Config::Append(const std::string& key, const std::string& value) {
  if (values_.find(key) == values_.end()) order_.push_back(key);
  values_[key] = value;
  lists_[key].push_back(value);
}

void Config::SetInt(const std::string& key, std::int64_t value) {
  Set(key, std::to_string(value));
}

void Config::SetDouble(const std::string& key, double value) {
  std::ostringstream oss;
  oss << value;
  Set(key, oss.str());
}

void Config::SetBool(const std::string& key, bool value) {
  Set(key, value ? "true" : "false");
}

bool Config::Contains(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key +
                                "' is not an integer: '" + it->second + "'");
  }
}

double Config::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "' is not a double: '" +
                                it->second + "'");
  }
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config key '" + key + "' is not a bool: '" +
                              it->second + "'");
}

std::vector<std::string> Config::GetList(const std::string& key) const {
  auto it = lists_.find(key);
  return it == lists_.end() ? std::vector<std::string>{} : it->second;
}

void Config::Merge(const Config& other) {
  for (const auto& key : other.order_) {
    if (values_.find(key) == values_.end()) order_.push_back(key);
    lists_[key] = other.lists_.at(key);
    values_[key] = other.values_.at(key);
  }
}

std::string Config::ToString() const {
  std::ostringstream oss;
  for (const auto& key : order_) {
    for (const auto& value : lists_.at(key)) {
      oss << key << '=' << value << '\n';
    }
  }
  return oss.str();
}

}  // namespace gnoc
