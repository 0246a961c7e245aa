// DNS domain names (RFC 1035).
//
// Names are sequences of labels, case-insensitive, at most 63 bytes per
// label and 255 bytes total in wire form.  The feature extractor reasons
// about labels ("the leftmost component contains 'mail'"), so DnsName keeps
// an explicit label vector rather than a flat string.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dnsbs::dns {

class DnsName {
 public:
  /// The root name (zero labels).
  DnsName() = default;

  /// Builds from pre-split labels; callers must pass valid labels
  /// (non-empty, <= 63 bytes).  Labels are lowercased.
  static DnsName from_labels(std::vector<std::string> labels);

  /// Parses presentation format ("mail.example.com", optional trailing
  /// dot).  Returns nullopt for empty labels, oversize labels, oversize
  /// names, or non-ASCII-printable characters.
  static std::optional<DnsName> parse(std::string_view text);

  bool is_root() const noexcept { return labels_.empty(); }
  std::size_t label_count() const noexcept { return labels_.size(); }

  /// i-th label from the *left* (host side): label(0) of mail.example.com
  /// is "mail".
  const std::string& label(std::size_t i) const noexcept { return labels_[i]; }

  const std::vector<std::string>& labels() const noexcept { return labels_; }

  /// Leftmost (host) label, or empty for root.
  std::string_view host_label() const noexcept {
    return labels_.empty() ? std::string_view{} : std::string_view{labels_.front()};
  }

  /// True if this name is `suffix` or ends with it ("a.b.example.com"
  /// ends_in "example.com").  Root is a suffix of everything.
  bool ends_in(const DnsName& suffix) const noexcept;

  /// The name with the leftmost label removed; parent of root is root.
  DnsName parent() const;

  /// Prepends a label, returning the child name.
  DnsName child(std::string_view label) const;

  /// Wire-format length (sum of 1+len per label, +1 root byte).
  std::size_t wire_length() const noexcept;

  /// Presentation format without trailing dot; "." for the root.
  std::string to_string() const;

  auto operator<=>(const DnsName&) const noexcept = default;

 private:
  std::vector<std::string> labels_;  // stored lowercase
};

/// A name's labels as views into the buffer it was decoded from: leftmost
/// first, letter case as on the wire, valid only while that buffer is.
/// Fixed capacity, no allocation: a name within the 255-octet wire cap
/// has at most 127 labels (each costs at least two octets, plus the root
/// byte).  Only labels [0, count) are ever set or read.
struct NameView {
  static constexpr std::size_t kMaxLabels = 127;
  struct Label {
    const char* data;
    std::uint8_t size;
  };

  std::size_t count = 0;
  Label labels[kMaxLabels];

  std::string_view label(std::size_t i) const noexcept {
    return {labels[i].data, labels[i].size};
  }
  /// The owning (lowercased) name.
  DnsName to_name() const;
};

}  // namespace dnsbs::dns

template <>
struct std::hash<dnsbs::dns::DnsName> {
  std::size_t operator()(const dnsbs::dns::DnsName& n) const noexcept {
    std::size_t h = 1469598103934665603ULL;
    for (const auto& label : n.labels()) {
      for (const char c : label) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
      h = (h ^ 0xff) * 1099511628211ULL;  // label boundary
    }
    return h;
  }
};
