#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace nepalbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

size_t MinSamplesFor(double q) {
  // Rank r = ceil(q * n) leaves n - r samples above it; the smallest n with
  // n - ceil(q * n) >= kMinSamplesBeyond.
  size_t n = kMinSamplesBeyond;
  while (n - static_cast<size_t>(std::ceil(q * static_cast<double>(n))) <
         kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void MixU64(uint64_t* h, uint64_t v) { Mix(h, &v, sizeof(v)); }

void MixString(uint64_t* h, const std::string& s) {
  MixU64(h, s.size());
  Mix(h, s.data(), s.size());
}

void AppendRow(const nepal::nql::ResultRow& row, std::string* out) {
  for (const nepal::nql::Pathway& p : row.paths) {
    out->append("[");
    for (size_t i = 0; i < p.uids.size(); ++i) {
      out->append(std::to_string(p.uids[i]));
      out->append(":");
      out->append(p.concepts[i] != nullptr ? p.concepts[i]->name() : "?");
      out->append(" ");
    }
    out->append("@" + std::to_string(p.valid.start) + "," +
                std::to_string(p.valid.end) + "]");
  }
  for (const nepal::Value& v : row.values) out->append("|" + v.ToString());
  out->append("@" + std::to_string(row.valid.start) + "," +
              std::to_string(row.valid.end) + "\n");
}

}  // namespace

Fingerprint FingerprintOf(const nepal::nql::QueryResult& result) {
  std::vector<uint64_t> row_hashes;
  row_hashes.reserve(result.rows.size());
  std::string buf;
  for (const nepal::nql::ResultRow& row : result.rows) {
    buf.clear();
    AppendRow(row, &buf);
    uint64_t h = kFnvOffset;
    MixString(&h, buf);
    row_hashes.push_back(h);
  }
  std::sort(row_hashes.begin(), row_hashes.end());
  Fingerprint fp;
  fp.rows = result.rows.size();
  fp.hash = kFnvOffset;
  for (uint64_t h : row_hashes) MixU64(&fp.hash, h);
  return fp;
}

std::string SerializeRows(const nepal::nql::QueryResult& result) {
  std::vector<std::string> lines(result.rows.size());
  for (size_t i = 0; i < result.rows.size(); ++i) {
    AppendRow(result.rows[i], &lines[i]);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

Clock::time_point DueTime(Clock::time_point start, double rate_per_s,
                          size_t i) {
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(std::llround(1e9 / rate_per_s)));
  return start + period * static_cast<int64_t>(i);
}

std::vector<OpenLoopOp> RunOpenLoop(
    double rate_per_s, Clock::time_point start,
    const std::function<bool(size_t)>& keep_going,
    const std::function<void(size_t)>& send,
    const std::function<Clock::time_point()>& now,
    const std::function<void(Clock::time_point)>& sleep_until) {
  std::vector<OpenLoopOp> ops;
  for (size_t i = 0; keep_going(i); ++i) {
    OpenLoopOp op;
    op.due = DueTime(start, rate_per_s, i);
    if (now() < op.due) sleep_until(op.due);
    op.sent = now();
    send(i);
    op.done = now();
    ops.push_back(op);
  }
  return ops;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace nepalbench
