#include "dns/name.hpp"

#include <algorithm>

namespace dnsbs::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxWire = 255;
/// Longest presentation text (no trailing dot) of a name within kMaxWire:
/// the wire form swaps each dot for a length byte and adds the first
/// label's length byte and the root byte.
constexpr std::size_t kMaxText = kMaxWire - 2;

bool valid_label_char(char c) noexcept {
  // Accept the LDH set plus underscore (seen in real reverse trees) —
  // printable, no dots or whitespace.
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '_';
}

/// ASCII lowercase in place; every other byte passes through unchanged.
void lower_in_place(std::string& label) noexcept {
  for (char& c : label) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}
}  // namespace

DnsName DnsName::from_labels(std::vector<std::string> labels) {
  for (auto& label : labels) lower_in_place(label);
  DnsName name;
  name.labels_ = std::move(labels);
  return name;
}

DnsName NameView::to_name() const {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.emplace_back(label(i));
  return DnsName::from_labels(std::move(out));
}

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName{};
  if (text.back() == '.') text.remove_suffix(1);
  // With every label non-empty, the wire form is exactly text.size() + 2.
  if (text.empty() || text.size() > kMaxText) return std::nullopt;

  DnsName name;
  name.labels_.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '.')) + 1);
  std::size_t start = 0;
  while (true) {
    const std::size_t end = std::min(text.find('.', start), text.size());
    if (end == start || end - start > kMaxLabel) return std::nullopt;
    std::string& label = name.labels_.emplace_back(text.substr(start, end - start));
    for (const char c : label) {
      if (!valid_label_char(c)) return std::nullopt;
    }
    lower_in_place(label);
    if (end == text.size()) return name;
    start = end + 1;
  }
}

bool DnsName::ends_in(const DnsName& suffix) const noexcept {
  if (suffix.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - suffix.labels_.size();
  for (std::size_t i = 0; i < suffix.labels_.size(); ++i) {
    if (labels_[offset + i] != suffix.labels_[i]) return false;
  }
  return true;
}

DnsName DnsName::parent() const {
  DnsName p;
  if (labels_.size() <= 1) return p;
  p.labels_.assign(labels_.begin() + 1, labels_.end());
  return p;
}

DnsName DnsName::child(std::string_view label) const {
  DnsName c;
  c.labels_.reserve(labels_.size() + 1);
  lower_in_place(c.labels_.emplace_back(label));
  c.labels_.insert(c.labels_.end(), labels_.begin(), labels_.end());
  return c;
}

std::size_t DnsName::wire_length() const noexcept {
  std::size_t len = 1;
  for (const auto& label : labels_) len += 1 + label.size();
  return len;
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i) out.push_back('.');
    out.append(labels_[i]);
  }
  return out;
}

}  // namespace dnsbs::dns
