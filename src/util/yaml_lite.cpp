#include "util/yaml_lite.h"


#include "util/strings.h"

namespace flexran::util {

YamlNode YamlNode::scalar(std::string value) {
  YamlNode node;
  node.kind_ = Kind::scalar;
  node.scalar_ = std::move(value);
  return node;
}

YamlNode YamlNode::map() {
  YamlNode node;
  node.kind_ = Kind::map;
  return node;
}

YamlNode YamlNode::sequence() {
  YamlNode node;
  node.kind_ = Kind::sequence;
  return node;
}

Result<long long> YamlNode::as_int() const {
  long long value = 0;
  if (!is_scalar() || !parse_int(scalar_, value)) {
    return Error::decode_failure("yaml scalar is not an integer: " + scalar_);
  }
  return value;
}

Result<double> YamlNode::as_double() const {
  double value = 0.0;
  if (!is_scalar() || !parse_double(scalar_, value)) {
    return Error::decode_failure("yaml scalar is not a number: " + scalar_);
  }
  return value;
}

const YamlNode* YamlNode::find(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

YamlNode& YamlNode::insert(std::string key, YamlNode value) {
  entries_.emplace_back(std::move(key), std::move(value));
  return entries_.back().second;
}

YamlNode& YamlNode::append(YamlNode value) {
  items_.push_back(std::move(value));
  return items_.back();
}

namespace {

struct Line {
  int indent = 0;
  std::string text;  // trimmed content
};

std::vector<Line> lex(std::string_view text) {
  std::vector<Line> lines;
  for (const auto& raw : split_lines(text)) {
    std::string_view view = raw;
    // Strip comments that start a token (simplistic: full-line or ' #').
    if (auto pos = view.find(" #"); pos != std::string_view::npos) view = view.substr(0, pos);
    std::size_t indent = 0;
    while (indent < view.size() && view[indent] == ' ') ++indent;
    const std::string_view content = trim(view);
    if (content.empty() || content.front() == '#') continue;
    lines.push_back({static_cast<int>(indent), std::string(content)});
  }
  return lines;
}

Result<YamlNode> parse_inline_sequence(std::string_view text) {
  // text is "[a, b, c]".
  auto inner = trim(text.substr(1, text.size() - 2));
  YamlNode seq = YamlNode::sequence();
  if (inner.empty()) return seq;
  for (const auto& part : split(inner, ',')) {
    seq.append(YamlNode::scalar(std::string(trim(part))));
  }
  return seq;
}

Result<YamlNode> parse_scalar_or_inline(std::string_view text) {
  auto trimmed = trim(text);
  if (trimmed.size() >= 2 && trimmed.front() == '[' && trimmed.back() == ']') {
    return parse_inline_sequence(trimmed);
  }
  // Strip surrounding quotes if present.
  if (trimmed.size() >= 2 &&
      ((trimmed.front() == '"' && trimmed.back() == '"') ||
       (trimmed.front() == '\'' && trimmed.back() == '\''))) {
    trimmed = trimmed.substr(1, trimmed.size() - 2);
  }
  return YamlNode::scalar(std::string(trimmed));
}

// Recursive-descent over the lexed lines. `pos` advances through `lines`;
// a block ends when indentation drops below `indent`.
Result<YamlNode> parse_block(const std::vector<Line>& lines, std::size_t& pos, int indent);

Result<YamlNode> parse_map_block(const std::vector<Line>& lines, std::size_t& pos, int indent) {
  YamlNode node = YamlNode::map();
  while (pos < lines.size() && lines[pos].indent == indent && lines[pos].text.front() != '-') {
    const Line& line = lines[pos];
    const auto colon = line.text.find(':');
    if (colon == std::string::npos) {
      return Error::decode_failure("yaml: expected 'key:' in line '" + line.text + "'");
    }
    std::string key(trim(std::string_view(line.text).substr(0, colon)));
    std::string_view rest = trim(std::string_view(line.text).substr(colon + 1));
    ++pos;
    if (!rest.empty()) {
      auto value = parse_scalar_or_inline(rest);
      if (!value.ok()) return value.error();
      node.insert(std::move(key), std::move(value.value()));
    } else if (pos < lines.size() && lines[pos].indent > indent) {
      auto child = parse_block(lines, pos, lines[pos].indent);
      if (!child.ok()) return child.error();
      node.insert(std::move(key), std::move(child.value()));
    } else {
      node.insert(std::move(key), YamlNode::scalar(""));
    }
  }
  return node;
}

Result<YamlNode> parse_sequence_block(const std::vector<Line>& lines, std::size_t& pos, int indent) {
  YamlNode node = YamlNode::sequence();
  while (pos < lines.size() && lines[pos].indent == indent && lines[pos].text.front() == '-') {
    const Line& line = lines[pos];
    std::string_view rest = trim(std::string_view(line.text).substr(1));
    if (!rest.empty() && rest.find(':') != std::string_view::npos &&
        !(rest.front() == '[')) {
      // "- key: value" opens an inline map item whose further keys are
      // indented past the dash.
      const int item_indent = line.indent + 2;
      std::vector<Line> synthetic{{item_indent, std::string(rest)}};
      // Pull subsequent deeper lines into the same item.
      std::size_t next = pos + 1;
      while (next < lines.size() && lines[next].indent >= item_indent &&
             !(lines[next].indent == indent && lines[next].text.front() == '-')) {
        synthetic.push_back(lines[next]);
        ++next;
      }
      std::size_t sub_pos = 0;
      auto item = parse_map_block(synthetic, sub_pos, item_indent);
      if (!item.ok()) return item.error();
      node.append(std::move(item.value()));
      pos = next;
    } else if (!rest.empty()) {
      auto value = parse_scalar_or_inline(rest);
      if (!value.ok()) return value.error();
      node.append(std::move(value.value()));
      ++pos;
    } else {
      ++pos;
      if (pos < lines.size() && lines[pos].indent > indent) {
        auto child = parse_block(lines, pos, lines[pos].indent);
        if (!child.ok()) return child.error();
        node.append(std::move(child.value()));
      } else {
        node.append(YamlNode::scalar(""));
      }
    }
  }
  return node;
}

Result<YamlNode> parse_block(const std::vector<Line>& lines, std::size_t& pos, int indent) {
  if (pos >= lines.size()) return YamlNode::map();
  if (lines[pos].text.front() == '-') return parse_sequence_block(lines, pos, indent);
  return parse_map_block(lines, pos, indent);
}

}  // namespace

Result<YamlNode> parse_yaml(std::string_view text) {
  const auto lines = lex(text);
  if (lines.empty()) return YamlNode::map();
  std::size_t pos = 0;
  auto root = parse_block(lines, pos, lines.front().indent);
  if (!root.ok()) return root;
  if (pos != lines.size()) {
    return Error::decode_failure("yaml: trailing content at line '" + lines[pos].text + "'");
  }
  return root;
}

}  // namespace flexran::util
