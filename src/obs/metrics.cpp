#include "obs/metrics.h"

#include <sstream>

namespace dpz::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never
  // destroyed: recording sites may fire during static destruction.
  return *registry;
}

std::size_t MetricsRegistry::bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t bucket = 1;
  while (value >>= 1) ++bucket;
  return bucket < kHistBuckets ? bucket : kHistBuckets - 1;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    snap.counters[i] = counters_[i].load(std::memory_order_relaxed);
  for (std::size_t h = 0; h < kHistCount; ++h)
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      snap.hists[h][b] = hists_[h][b].load(std::memory_order_relaxed);
  for (std::size_t h = 0; h < kHistCount; ++h)
    snap.hist_sums[h] = hist_sums_[h].load(std::memory_order_relaxed);
  return snap;
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& h : hists_)
    for (auto& b : h) b.store(0, std::memory_order_relaxed);
  for (auto& s : hist_sums_) s.store(0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::hist_count(Hist id) const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : hists[static_cast<std::size_t>(id)])
    total += b;
  return total;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out << (i == 0 ? "" : ", ") << '"'
        << counter_name(static_cast<Counter>(i)) << "\": " << counters[i];
  }
  out << "}, \"histograms\": {";
  for (std::size_t h = 0; h < kHistCount; ++h) {
    out << (h == 0 ? "" : ", ") << '"' << hist_name(static_cast<Hist>(h))
        << "\": {\"count\": " << hist_count(static_cast<Hist>(h))
        << ", \"sum\": " << hist_sums[h] << ", \"buckets\": [";
    // Sparse [bucket_index, count] pairs; bucket i covers [2^(i-1), 2^i).
    bool first = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (hists[h][b] == 0) continue;
      out << (first ? "" : ", ") << '[' << b << ", " << hists[h][b] << ']';
      first = false;
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  // Text exposition format. Counters carry the conventional _total
  // suffix; histograms emit the full cumulative bucket ladder (a scraper
  // needs every le value present on every scrape, so buckets are not
  // sparse here). Bucket i covers integer values in [2^(i-1), 2^i), so
  // its upper bound as an inclusive le label is 2^i - 1; the clamped top
  // bucket is +Inf.
  std::ostringstream out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const char* name = counter_name(static_cast<Counter>(i));
    out << "# HELP dpz_" << name << "_total "
        << counter_help(static_cast<Counter>(i)) << '\n';
    out << "# TYPE dpz_" << name << "_total counter\n";
    out << "dpz_" << name << "_total " << counters[i] << '\n';
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const char* name = hist_name(static_cast<Hist>(h));
    out << "# HELP dpz_" << name << ' '
        << hist_help(static_cast<Hist>(h)) << '\n';
    out << "# TYPE dpz_" << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
      cumulative += hists[h][b];
      out << "dpz_" << name << "_bucket{le=\""
          << (b == 0 ? 0 : (1ULL << b) - 1) << "\"} " << cumulative
          << '\n';
    }
    cumulative += hists[h][kHistBuckets - 1];
    out << "dpz_" << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    out << "dpz_" << name << "_sum " << hist_sums[h] << '\n';
    out << "dpz_" << name << "_count " << cumulative << '\n';
  }
  return out.str();
}

}  // namespace dpz::obs
