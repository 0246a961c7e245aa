#include "dns/capture.hpp"

#include "dns/reverse.hpp"
#include "dns/wire.hpp"
#include "util/metrics.hpp"

namespace dnsbs::dns {

namespace {
// Registry mirror of CaptureStats (see the struct comment): same names,
// same partition invariant, summed across every capture stream in the
// process.  Classification of a packet stream is order-independent, so
// these are deterministic series.
util::MetricCounter& g_packets = util::metrics_counter("dnsbs.capture.packets");
util::MetricCounter& g_malformed = util::metrics_counter("dnsbs.capture.malformed");
util::MetricCounter& g_responses = util::metrics_counter("dnsbs.capture.responses");
util::MetricCounter& g_rejected = util::metrics_counter("dnsbs.capture.rejected_query");
util::MetricCounter& g_non_ptr = util::metrics_counter("dnsbs.capture.non_ptr");
util::MetricCounter& g_non_reverse = util::metrics_counter("dnsbs.capture.non_reverse_name");
util::MetricCounter& g_accepted = util::metrics_counter("dnsbs.capture.accepted");
}  // namespace

std::optional<QueryRecord> record_from_packet(std::span<const std::uint8_t> payload,
                                              util::SimTime time, net::IPv4Addr source,
                                              CaptureStats& stats) {
  ++stats.packets;
  g_packets.inc();
  // One validating walk, nothing allocated: the buckets are decode()'s,
  // read from the header bits and the first question's label views.
  QueryScan scan;
  if (!scan_query(payload.data(), payload.size(), scan)) {
    ++stats.malformed;
    g_malformed.inc();
    return std::nullopt;
  }
  if (scan.is_response) {
    ++stats.responses;
    g_responses.inc();
    return std::nullopt;
  }
  if (scan.opcode != 0 || scan.qdcount != 1) {
    // Decoded fine; the sensor's policy (plain QUERY, exactly one
    // question) is what rejects it — not corruption.
    ++stats.rejected_query;
    g_rejected.inc();
    return std::nullopt;
  }
  if (scan.qtype != QType::kPTR || scan.qclass != QClass::kIN) {
    ++stats.non_ptr;
    g_non_ptr.inc();
    return std::nullopt;
  }
  const auto originator = address_from_reverse(scan.qname);
  if (!originator) {
    ++stats.non_reverse_name;
    g_non_reverse.inc();
    return std::nullopt;
  }
  ++stats.accepted;
  g_accepted.inc();
  // The response outcome is unknown at query time; NOERROR is recorded
  // and may be refined by matching responses in a fuller capture stack.
  return QueryRecord{time, source, *originator, RCode::kNoError};
}

std::vector<std::uint8_t> make_ptr_query_packet(std::uint16_t id,
                                                net::IPv4Addr originator) {
  return encode(Message::ptr_query(id, originator));
}

}  // namespace dnsbs::dns
