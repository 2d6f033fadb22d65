#include "tracing.h"

#include <algorithm>
#include <chrono>

namespace nepalbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(std::string thread_name, size_t capacity)
    : thread_name_(std::move(thread_name)), capacity_(capacity) {
  spans_.reserve(std::min<size_t>(capacity, 1u << 16));
}

uint64_t SpanRecorder::BeginRequest(Bucket bucket, const std::string& label) {
  bucket_ = bucket;
  auto it = std::find(labels_.begin(), labels_.end(), label);
  label_ = static_cast<uint32_t>(it - labels_.begin());
  if (it == labels_.end()) labels_.push_back(label);
  ++request_;
  ++requests_[bucket];
  root_ = Open("request");
  return request_;
}

void SpanRecorder::EndRequest() { Close(root_); }

uint32_t SpanRecorder::Open(const char* name) {
  const uint32_t id = next_span_++;
  stack_.push_back(OpenSpan{id, name, NowNs(), 0});
  return id;
}

int64_t SpanRecorder::Close(uint32_t id) {
  const int64_t end = NowNs();
  if (stack_.empty() || stack_.back().id != id) {
    // Unbalanced use is a bug in the benchmark; drop the span rather than
    // corrupting the parent chain.
    ++dropped_;
    return 0;
  }
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanTotals& t = totals_[{bucket_, open.name}];
  ++t.count;
  t.dur_ns += static_cast<double>(dur);
  t.self_ns += static_cast<double>(dur - open.child_ns);
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{request_, id, parent, open.name,
                          parent == 0 ? label_ : 0, open.start_ns, end});
  } else {
    ++dropped_;
  }
  return dur;
}

void SpanRecorder::Count(const char* name, double v) {
  totals_[{bucket_, name}].value += v;
}

const SpanTotals& SpanRecorder::Totals(Bucket bucket,
                                       const std::string& name) const {
  static const SpanTotals kEmpty;
  auto it = totals_.find({bucket, name});
  return it == totals_.end() ? kEmpty : it->second;
}

void SpanRecorder::WriteJsonLines(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"thread\":\"%s\",\"request\":%llu,\"id\":%u,"
                 "\"parent\":%u,\"name\":\"%s\",\"label\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 thread_name_.c_str(),
                 static_cast<unsigned long long>(s.request), s.id, s.parent,
                 s.name, labels_[s.label].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

using nepal::storage::CompiledAtom;
using nepal::storage::Direction;
using nepal::storage::PathSet;
using nepal::storage::TimeView;

PathSet TracingExecutor::Record(uint32_t span, PathSet out) {
  if (rec_ != nullptr) {
    rec_->Close(span);
    rec_->Count("backend.calls", 1);
    rec_->Count("backend.rows_out", static_cast<double>(out.size()));
  }
  return out;
}

PathSet TracingExecutor::Select(const CompiledAtom& atom,
                                const TimeView& view) {
  const uint32_t span = rec_ != nullptr ? rec_->Open("backend.select") : 0;
  return Record(span, inner_->Select(atom, view));
}

PathSet TracingExecutor::SelectSeeds(const std::vector<nepal::Uid>& nodes,
                                     const TimeView& view) {
  const uint32_t span = rec_ != nullptr ? rec_->Open("backend.select") : 0;
  return Record(span, inner_->SelectSeeds(nodes, view));
}

PathSet TracingExecutor::ExtendAtom(const PathSet& frontier,
                                    const CompiledAtom& atom, Direction dir,
                                    const TimeView& view) {
  const uint32_t span = rec_ != nullptr ? rec_->Open("backend.extend") : 0;
  return Record(span, inner_->ExtendAtom(frontier, atom, dir, view));
}

PathSet TracingExecutor::ExtendBlock(
    const PathSet& frontier, const std::vector<CompiledAtom>& alternatives,
    int min_rep, int max_rep, Direction dir, const TimeView& view) {
  const uint32_t span = rec_ != nullptr ? rec_->Open("backend.extend") : 0;
  return Record(span, inner_->ExtendBlock(frontier, alternatives, min_rep,
                                          max_rep, dir, view));
}

PathSet TracingExecutor::FinalizeTail(const PathSet& frontier,
                                      const TimeView& view) {
  const uint32_t span = rec_ != nullptr ? rec_->Open("backend.extend") : 0;
  return Record(span, inner_->FinalizeTail(frontier, view));
}

nepal::Status TracingWriteLog::Append(const nepal::storage::WalRecord& rec) {
  ScopedSpan span(rec_, "persist.wal_append");
  return inner_->Append(rec);
}

nepal::Status TracingWriteLog::AppendBatch(
    const std::vector<nepal::storage::WalRecord>& recs) {
  ScopedSpan span(rec_, "persist.wal_append");
  return inner_->AppendBatch(recs);
}

void TracingWriteLog::WaitCommitted(uint64_t token) {
  ScopedSpan span(rec_, "persist.wait_committed");
  inner_->WaitCommitted(token);
}

}  // namespace nepalbench
