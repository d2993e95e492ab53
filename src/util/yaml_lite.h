// Minimal YAML subset parser, sufficient for FlexRAN policy-reconfiguration
// messages (paper Fig. 3): nested maps via 2+-space indentation, block
// sequences ("- item"), inline sequences ("[a, b, c]"), and scalar values.
// Anchors, multi-line scalars, and flow maps are intentionally unsupported.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace flexran::util {

class YamlNode {
 public:
  enum class Kind { scalar, map, sequence };

  YamlNode() : kind_(Kind::scalar) {}
  static YamlNode scalar(std::string value);
  static YamlNode map();
  static YamlNode sequence();

  bool is_scalar() const { return kind_ == Kind::scalar; }
  bool is_map() const { return kind_ == Kind::map; }
  bool is_sequence() const { return kind_ == Kind::sequence; }

  // Scalar access.
  const std::string& as_string() const { return scalar_; }
  Result<long long> as_int() const;
  Result<double> as_double() const;

  // Map access. Keys preserve insertion order.
  const YamlNode* find(std::string_view key) const;
  const std::vector<std::pair<std::string, YamlNode>>& entries() const { return entries_; }
  YamlNode& insert(std::string key, YamlNode value);

  // Sequence access.
  const std::vector<YamlNode>& items() const { return items_; }
  YamlNode& append(YamlNode value);

 private:
  Kind kind_;
  std::string scalar_;
  std::vector<std::pair<std::string, YamlNode>> entries_;  // map
  std::vector<YamlNode> items_;                            // sequence
};

/// Parses a document; the root is always a map.
Result<YamlNode> parse_yaml(std::string_view text);

}  // namespace flexran::util
