#include "dns/wire.hpp"

#include <cstring>
#include <unordered_map>

#include "dns/reverse.hpp"

namespace dnsbs::dns {

const char* to_string(QType t) noexcept {
  switch (t) {
    case QType::kA: return "A";
    case QType::kNS: return "NS";
    case QType::kCNAME: return "CNAME";
    case QType::kSOA: return "SOA";
    case QType::kPTR: return "PTR";
    case QType::kMX: return "MX";
    case QType::kTXT: return "TXT";
    case QType::kAAAA: return "AAAA";
    case QType::kANY: return "ANY";
  }
  return "TYPE?";
}

const char* to_string(RCode r) noexcept {
  switch (r) {
    case RCode::kNoError: return "NOERROR";
    case RCode::kFormErr: return "FORMERR";
    case RCode::kServFail: return "SERVFAIL";
    case RCode::kNXDomain: return "NXDOMAIN";
    case RCode::kNotImp: return "NOTIMP";
    case RCode::kRefused: return "REFUSED";
  }
  return "RCODE?";
}

Message Message::ptr_query(std::uint16_t id, net::IPv4Addr originator) {
  Message m;
  m.id = id;
  m.recursion_desired = true;
  m.questions.push_back(Question{
      .name = reverse_name(originator), .qtype = QType::kPTR, .qclass = QClass::kIN});
  return m;
}

Message Message::response_to(const Message& query, RCode rcode,
                             std::vector<ResourceRecord> answers) {
  Message m;
  m.id = query.id;
  m.is_response = true;
  m.opcode = query.opcode;
  m.recursion_desired = query.recursion_desired;
  m.rcode = rcode;
  m.questions = query.questions;
  m.answers = std::move(answers);
  return m;
}

namespace {

// RFC 1035 wire limits, enforced on both encode and decode.
constexpr std::size_t kMaxLabelLen = 63;        // §2.3.4: label octets
constexpr std::size_t kMaxNameWire = 255;       // §2.3.4: whole-name octets
constexpr std::size_t kMaxPointerOffset = 0x3fff;  // §4.1.4: 14-bit offset
constexpr std::size_t kMaxSectionCount = 0xffff;   // header counts are u16
constexpr std::size_t kMaxRdataLen = 0xffff;       // RDLENGTH is u16

// ---- encoding ----

class Encoder {
 public:
  std::vector<std::uint8_t> take() { return std::move(out_); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }

  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const noexcept { return out_.size(); }

  /// Emits a name with compression: the longest previously-emitted suffix
  /// is replaced by a pointer (RFC 1035 §4.1.4).  Returns false — emitting
  /// nothing usable — for names the wire format cannot represent: empty or
  /// > 63-byte labels, or > 255 octets total.  (DnsName::parse enforces
  /// these, but from_labels and decoded-then-edited names do not.)
  bool name(const DnsName& n) {
    const auto& labels = n.labels();
    std::size_t wire_len = 1;  // root byte
    for (const auto& label : labels) {
      if (label.empty() || label.size() > kMaxLabelLen) return false;
      wire_len += 1 + label.size();
    }
    if (wire_len > kMaxNameWire) return false;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      // The suffix starting at label i, keyed in wire form (length-prefixed
      // labels) so {"a","b"} and the single label "a.b" cannot alias.
      std::string key;
      for (std::size_t j = i; j < labels.size(); ++j) {
        key.push_back(static_cast<char>(labels[j].size()));
        key.append(labels[j]);
      }
      const auto it = suffix_offsets_.find(key);
      if (it != suffix_offsets_.end() && it->second <= kMaxPointerOffset) {
        u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return true;
      }
      if (out_.size() <= kMaxPointerOffset) {
        suffix_offsets_.emplace(std::move(key), out_.size());
      }
      u8(static_cast<std::uint8_t>(labels[i].size()));
      for (const char c : labels[i]) out_.push_back(static_cast<std::uint8_t>(c));
    }
    u8(0);  // root
    return true;
  }

 private:
  std::vector<std::uint8_t> out_;
  std::unordered_map<std::string, std::size_t> suffix_offsets_;
};

bool encode_rr(Encoder& enc, const ResourceRecord& rr) {
  if (!enc.name(rr.name)) return false;
  enc.u16(static_cast<std::uint16_t>(rr.rtype));
  enc.u16(static_cast<std::uint16_t>(rr.rclass));
  enc.u32(rr.ttl);
  const std::size_t rdlength_at = enc.size();
  enc.u16(0);  // placeholder
  const std::size_t rdata_start = enc.size();
  if (const auto* addr = std::get_if<net::IPv4Addr>(&rr.rdata.value)) {
    enc.u32(addr->value());
  } else if (const auto* nm = std::get_if<DnsName>(&rr.rdata.value)) {
    if (!enc.name(*nm)) return false;
  } else {
    const auto& raw = std::get<std::vector<std::uint8_t>>(rr.rdata.value);
    for (const std::uint8_t b : raw) enc.u8(b);
  }
  const std::size_t rdata_len = enc.size() - rdata_start;
  if (rdata_len > kMaxRdataLen) return false;  // would truncate in the u16 field
  enc.patch_u16(rdlength_at, static_cast<std::uint16_t>(rdata_len));
  return true;
}

// ---- decoding ----

class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > size_) return false;
    v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t hi = 0, lo = 0;
    if (!u16(hi) || !u16(lo)) return false;
    v = (static_cast<std::uint32_t>(hi) << 16) | lo;
    return true;
  }

  std::size_t pos() const noexcept { return pos_; }

  /// Reads a possibly-compressed name starting at the cursor into label
  /// views of the packet.  Pointers count toward a 64-jump limit and must
  /// point backwards; reserved label types are rejected.
  bool name(NameView& out) {
    std::size_t count = 0;  // a local, not out.count: the label stores may alias it
    std::size_t cursor = pos_;
    std::size_t jumps = 0;
    bool jumped = false;
    std::size_t after_first_pointer = 0;
    std::size_t wire_len = 1;  // root byte
    while (true) {
      if (cursor >= size_) return false;
      const std::uint8_t len = data_[cursor];
      if ((len & 0xc0) == 0xc0) {
        if (cursor + 1 >= size_) return false;
        if (++jumps > 64) return false;  // pointer loop
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3f) << 8) | data_[cursor + 1];
        if (!jumped) {
          after_first_pointer = cursor + 2;
          jumped = true;
        }
        if (target >= cursor) return false;  // only backwards pointers
        cursor = target;
        continue;
      }
      if ((len & 0xc0) != 0) return false;  // reserved label types
      ++cursor;
      if (len == 0) break;
      if (cursor + len > size_) return false;
      // RFC 1035 §2.3.4 total-name cap; chasing pointers must not let an
      // adversarially-compressed packet expand past what any legal name
      // occupies on the wire.  It also bounds the label count by
      // NameView::kMaxLabels.
      wire_len += 1 + static_cast<std::size_t>(len);
      if (wire_len > kMaxNameWire) return false;
      out.labels[count++] = {reinterpret_cast<const char*>(data_ + cursor), len};
      cursor += len;
    }
    pos_ = jumped ? after_first_pointer : cursor;
    out.count = count;
    return true;
  }

  /// Skips `n` raw bytes; false when the packet does not hold them.
  /// `start`, when non-null, receives where they begin.
  bool skip(std::size_t n, const std::uint8_t** start = nullptr) {
    if (n > size_ - pos_) return false;
    if (start != nullptr) *start = data_ + pos_;
    pos_ += n;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

static_assert(NameView::kMaxLabels >= (kMaxNameWire - 1) / 2,
              "a name within the wire cap must fit a NameView");

// The one message walk, shared by decode() and scan_query().  It validates
// every field and section the same way whatever the sink; the sink only
// decides what is kept.  Each name is read as packet views into a NameView
// the sink lends (`name_for`); a sink that keeps records gets an owning
// copy of each (decode()), the other keeps only what the scan needs.

/// decode()'s sink: the whole Message, every name and rdata owned.
struct MessageSink {
  static constexpr bool kKeepsRecords = true;
  explicit MessageSink(Message& m) : msg(m) {}
  Message& msg;
  NameView scratch;  // left uninitialized: only [0, count) is ever read

  void header(std::uint16_t id, std::uint16_t flags, std::uint16_t) {
    msg.id = id;
    msg.is_response = (flags & 0x8000) != 0;
    msg.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xf);
    msg.authoritative = (flags & 0x0400) != 0;
    msg.truncated = (flags & 0x0200) != 0;
    msg.recursion_desired = (flags & 0x0100) != 0;
    msg.recursion_available = (flags & 0x0080) != 0;
    msg.rcode = static_cast<RCode>(flags & 0xf);
  }
  NameView& name_for(std::uint16_t) { return scratch; }
  void question(std::uint16_t, std::uint16_t qtype, std::uint16_t qclass) {
    msg.questions.push_back(Question{.name = scratch.to_name(),
                                     .qtype = static_cast<QType>(qtype),
                                     .qclass = static_cast<QClass>(qclass)});
  }
  std::vector<ResourceRecord>& section(int s) {
    return s == 0 ? msg.answers : s == 1 ? msg.authorities : msg.additionals;
  }
};

/// scan_query()'s sink: the header bits and the first question, its name
/// written straight into the scan as packet views.
struct ScanSink {
  static constexpr bool kKeepsRecords = false;
  explicit ScanSink(QueryScan& o) : out(o) {}
  QueryScan& out;
  NameView scratch;  // later questions and every RR name

  void header(std::uint16_t, std::uint16_t flags, std::uint16_t qd) {
    out.is_response = (flags & 0x8000) != 0;
    out.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xf);
    out.qdcount = qd;
    out.qname.count = 0;
  }
  NameView& name_for(std::uint16_t question) { return question == 0 ? out.qname : scratch; }
  void question(std::uint16_t i, std::uint16_t qtype, std::uint16_t qclass) {
    if (i != 0) return;
    out.qtype = static_cast<QType>(qtype);
    out.qclass = static_cast<QClass>(qclass);
  }
};

/// One resource record of section `section` (0 answer, 1 authority,
/// 2 additional).
template <class Sink>
bool walk_rr(Decoder& dec, Sink& sink, [[maybe_unused]] int section) {
  NameView& name = sink.scratch;
  std::uint16_t rtype = 0, rclass = 0, rdlength = 0;
  std::uint32_t ttl = 0;
  if (!dec.name(name)) return false;
  ResourceRecord* rr = nullptr;
  if constexpr (Sink::kKeepsRecords) {
    rr = &sink.section(section).emplace_back();
    rr->name = name.to_name();
  }
  if (!dec.u16(rtype) || !dec.u16(rclass) || !dec.u32(ttl) || !dec.u16(rdlength)) {
    return false;
  }
  if constexpr (Sink::kKeepsRecords) {
    rr->rtype = static_cast<QType>(rtype);
    rr->rclass = static_cast<QClass>(rclass);
    rr->ttl = ttl;
  }
  const std::size_t rdata_start = dec.pos();
  switch (static_cast<QType>(rtype)) {
    case QType::kA: {
      std::uint32_t v = 0;
      if (rdlength != 4 || !dec.u32(v)) return false;
      if constexpr (Sink::kKeepsRecords) rr->rdata.value = net::IPv4Addr(v);
      return true;
    }
    case QType::kPTR:
    case QType::kNS:
    case QType::kCNAME: {
      if (!dec.name(name)) return false;
      if (dec.pos() != rdata_start + rdlength) return false;
      if constexpr (Sink::kKeepsRecords) rr->rdata.value = name.to_name();
      return true;
    }
    default: {
      // Bounds are checked before any allocation, so a claimed length the
      // packet does not hold can never drive a speculative allocation.
      [[maybe_unused]] const std::uint8_t* raw = nullptr;
      if (!dec.skip(rdlength, &raw)) return false;
      if constexpr (Sink::kKeepsRecords) {
        rr->rdata.value = std::vector<std::uint8_t>(raw, raw + rdlength);
      }
      return true;
    }
  }
}

template <class Sink>
bool walk_message(const std::uint8_t* data, std::size_t size, Sink& sink) {
  Decoder dec(data, size);
  std::uint16_t id = 0, flags = 0, qd = 0;
  std::uint16_t counts[3] = {0, 0, 0};  // answer, authority, additional
  if (!dec.u16(id) || !dec.u16(flags) || !dec.u16(qd) || !dec.u16(counts[0]) ||
      !dec.u16(counts[1]) || !dec.u16(counts[2])) {
    return false;
  }
  sink.header(id, flags, qd);
  for (std::uint16_t i = 0; i < qd; ++i) {
    std::uint16_t qtype = 0, qclass = 0;
    if (!dec.name(sink.name_for(i)) || !dec.u16(qtype) || !dec.u16(qclass)) return false;
    sink.question(i, qtype, qclass);
  }
  for (int s = 0; s < 3; ++s) {
    for (std::uint16_t i = 0; i < counts[s]; ++i) {
      if (!walk_rr(dec, sink, s)) return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> try_encode(const Message& msg) {
  // Header counts are 16-bit; an oversize section would silently encode a
  // corrupt header, so it is rejected up front.
  if (msg.questions.size() > kMaxSectionCount || msg.answers.size() > kMaxSectionCount ||
      msg.authorities.size() > kMaxSectionCount ||
      msg.additionals.size() > kMaxSectionCount) {
    return std::nullopt;
  }
  Encoder enc;
  enc.u16(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((msg.opcode & 0xf) << 11);
  if (msg.authoritative) flags |= 0x0400;
  if (msg.truncated) flags |= 0x0200;
  if (msg.recursion_desired) flags |= 0x0100;
  if (msg.recursion_available) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(msg.rcode) & 0xf;
  enc.u16(flags);
  enc.u16(static_cast<std::uint16_t>(msg.questions.size()));
  enc.u16(static_cast<std::uint16_t>(msg.answers.size()));
  enc.u16(static_cast<std::uint16_t>(msg.authorities.size()));
  enc.u16(static_cast<std::uint16_t>(msg.additionals.size()));
  for (const auto& q : msg.questions) {
    if (!enc.name(q.name)) return std::nullopt;
    enc.u16(static_cast<std::uint16_t>(q.qtype));
    enc.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : msg.answers) {
    if (!encode_rr(enc, rr)) return std::nullopt;
  }
  for (const auto& rr : msg.authorities) {
    if (!encode_rr(enc, rr)) return std::nullopt;
  }
  for (const auto& rr : msg.additionals) {
    if (!encode_rr(enc, rr)) return std::nullopt;
  }
  return enc.take();
}

std::vector<std::uint8_t> encode(const Message& msg) {
  return try_encode(msg).value_or(std::vector<std::uint8_t>{});
}

std::optional<Message> decode(const std::uint8_t* data, std::size_t size) {
  Message msg;
  MessageSink sink(msg);
  if (!walk_message(data, size, sink)) return std::nullopt;
  return msg;
}

std::optional<Message> decode(const std::vector<std::uint8_t>& wire) {
  return decode(wire.data(), wire.size());
}

bool scan_query(const std::uint8_t* data, std::size_t size, QueryScan& out) {
  ScanSink sink(out);
  return walk_message(data, size, sink);
}

}  // namespace dnsbs::dns
