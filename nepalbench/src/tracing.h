// Bench-side tracing: an in-memory span recorder and the forwarding
// decorators that time calls into the program's public layer interfaces.
// Nothing here changes what the program computes — each decorator forwards
// every virtual of the interface it wraps — so the traced run answers
// exactly what the untraced run answers, only slower.

#ifndef NEPALBENCH_TRACING_H_
#define NEPALBENCH_TRACING_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/pathset.h"
#include "storage/write_log.h"

namespace nepalbench {

/// Which aggregate a request's spans fold into: reads per backend, writes.
enum Bucket : int { kGraphstore = 0, kRelational = 1, kWrites = 2 };
constexpr int kNumBuckets = 3;

/// Per-(bucket, span name) sums. `self_ns` is the span's duration minus the
/// part its child spans cover; `value` accumulates Count() figures.
struct SpanTotals {
  uint64_t count = 0;
  double dur_ns = 0;
  double self_ns = 0;
  double value = 0;
};

/// Records spans of one thread. Each request gets an id and a root span;
/// spans nest strictly (Open/Close in LIFO order), so a span's parent is
/// the innermost open span. Totals are folded in as spans close; the spans
/// themselves are kept (up to `capacity`) and written out at the end.
class SpanRecorder {
 public:
  SpanRecorder(std::string thread_name, size_t capacity);

  /// Opens the root span of a new request, labelled `label` (e.g. the query
  /// type), and routes its spans to `bucket`'s totals. Returns the request
  /// id.
  uint64_t BeginRequest(Bucket bucket, const std::string& label);
  void EndRequest();

  uint32_t Open(const char* name);
  /// Closes the innermost open span, which must be `id`; returns its
  /// duration in ns.
  int64_t Close(uint32_t id);
  /// Adds `v` to the (current bucket, name) value total.
  void Count(const char* name, double v);

  const SpanTotals& Totals(Bucket bucket, const std::string& name) const;
  uint64_t requests(Bucket bucket) const { return requests_[bucket]; }
  uint64_t dropped() const { return dropped_; }

  /// One JSON object per span: request, id, parent, name, start/end ns;
  /// root spans also carry the request's label.
  void WriteJsonLines(std::FILE* out) const;

 private:
  struct Span {
    uint64_t request;
    uint32_t id;
    uint32_t parent;
    const char* name;
    uint32_t label;  // index into labels_; root spans only
    int64_t start_ns;
    int64_t end_ns;
  };
  struct OpenSpan {
    uint32_t id;
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
  };

  std::string thread_name_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
  std::map<std::pair<int, std::string>, SpanTotals> totals_;
  uint64_t requests_[kNumBuckets] = {0, 0, 0};
  uint64_t dropped_ = 0;
  uint64_t request_ = 0;
  uint32_t next_span_ = 1;
  Bucket bucket_ = kGraphstore;
  uint32_t root_ = 0;
  std::vector<std::string> labels_ = {""};
  uint32_t label_ = 0;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->Open(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// Forwards every PathOperatorExecutor virtual to the backend's own
/// executor, recording a `backend.select` or `backend.extend` span per call
/// plus call and output-row counts.
class TracingExecutor final : public nepal::storage::PathOperatorExecutor {
 public:
  TracingExecutor(std::unique_ptr<nepal::storage::PathOperatorExecutor> inner,
                  SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  nepal::storage::PathSet Select(const nepal::storage::CompiledAtom& atom,
                                 const nepal::storage::TimeView& view) override;
  nepal::storage::PathSet SelectSeeds(
      const std::vector<nepal::Uid>& nodes,
      const nepal::storage::TimeView& view) override;
  nepal::storage::PathSet ExtendAtom(
      const nepal::storage::PathSet& frontier,
      const nepal::storage::CompiledAtom& atom, nepal::storage::Direction dir,
      const nepal::storage::TimeView& view) override;
  nepal::storage::PathSet ExtendBlock(
      const nepal::storage::PathSet& frontier,
      const std::vector<nepal::storage::CompiledAtom>& alternatives,
      int min_rep, int max_rep, nepal::storage::Direction dir,
      const nepal::storage::TimeView& view) override;
  nepal::storage::PathSet FinalizeTail(
      const nepal::storage::PathSet& frontier,
      const nepal::storage::TimeView& view) override;

 private:
  nepal::storage::PathSet Record(uint32_t span, nepal::storage::PathSet out);

  std::unique_ptr<nepal::storage::PathOperatorExecutor> inner_;
  SpanRecorder* rec_;
};

/// Forwards the WriteLog interface (Append, AppendBatch, commit_token,
/// WaitCommitted) to the log GraphDb had attached — the DurableStore —
/// recording `persist.wal_append` and `persist.wait_committed` spans. Only
/// one thread may commit while it is installed (its recorder is
/// single-threaded).
class TracingWriteLog final : public nepal::storage::WriteLog {
 public:
  TracingWriteLog(nepal::storage::WriteLog* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  nepal::Status Append(const nepal::storage::WalRecord& rec) override;
  nepal::Status AppendBatch(
      const std::vector<nepal::storage::WalRecord>& recs) override;
  uint64_t commit_token() const override { return inner_->commit_token(); }
  void WaitCommitted(uint64_t token) override;

 private:
  nepal::storage::WriteLog* inner_;
  SpanRecorder* rec_;
};

}  // namespace nepalbench

#endif  // NEPALBENCH_TRACING_H_
