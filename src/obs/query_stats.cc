#include "obs/query_stats.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/metrics.h"

namespace nepal::obs {

void OperatorStats::MergeCountsFrom(const OperatorStats& other) {
  rows_in += other.rows_in;
  rows_out += other.rows_out;
  dedup_dropped += other.dedup_dropped;
  shards += other.shards;
  wall_ns += other.wall_ns;
  invocations += other.invocations;
  built += other.built;
  // Estimates are per-execution figures: merging repeated runs of the same
  // plan sums them alongside the actual rows (est/actual ratios survive).
  if (other.est_rows >= 0) {
    est_rows = est_rows >= 0 ? est_rows + other.est_rows : other.est_rows;
  }
}

namespace {

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void OperatorStats::AppendJson(std::string* out) const {
  *out += "{\"group\":\"" + JsonEscape(group) + "\",\"op\":\"" +
          JsonEscape(op) + "\",\"rows_in\":" + std::to_string(rows_in) +
          ",\"rows_out\":" + std::to_string(rows_out) +
          ",\"est_rows\":" + JsonDouble(est_rows) +
          ",\"built\":" + std::to_string(built) +
          ",\"dedup_dropped\":" + std::to_string(dedup_dropped) +
          ",\"shards\":" + std::to_string(shards) +
          ",\"wall_ns\":" + std::to_string(wall_ns) +
          ",\"invocations\":" + std::to_string(invocations) + "}";
}

void QueryStats::MergeFrom(const QueryStats& other) {
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (size_t i = 0; i < operators.size(); ++i) {
    index[{operators[i].group, operators[i].op}] = i;
  }
  for (const OperatorStats& op : other.operators) {
    auto it = index.find({op.group, op.op});
    if (it == index.end()) {
      index[{op.group, op.op}] = operators.size();
      operators.push_back(op);
    } else {
      operators[it->second].MergeCountsFrom(op);
    }
  }
  wall_ns += other.wall_ns;
  result_rows += other.result_rows;
  plan_cost += other.plan_cost;
}

std::string QueryStats::ToString() const {
  size_t op_width = 8;
  for (const OperatorStats& op : operators) {
    op_width = std::max(op_width, op.op.size() + 2);
  }
  op_width = std::min<size_t>(op_width, 60);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %9s %9s %9s %9s %7s %6s %6s %10s\n",
                static_cast<int>(op_width), "operator", "rows_in", "rows_out",
                "est_rows", "built", "dedup", "shards", "invocs", "wall_ms");
  out += line;
  std::string current_group;
  for (const OperatorStats& op : operators) {
    if (op.group != current_group) {
      current_group = op.group;
      out += current_group + "\n";
    }
    std::string name = "  " + op.op;
    if (name.size() > op_width) name = name.substr(0, op_width - 3) + "...";
    // The est_rows column stays 9 wide for any estimate: one decimal below
    // 10^7, whole rows below 10^9, an exponent beyond.
    char est[16];
    if (op.est_rows >= 0) {
      for (const char* format : {"%9.1f", "%9.0f", "%9.2e"}) {
        if (std::snprintf(est, sizeof(est), format, op.est_rows) <= 9) break;
      }
    } else {
      std::snprintf(est, sizeof(est), "%9s", "-");
    }
    std::snprintf(line, sizeof(line),
                  "%-*s %9llu %9llu %s %9llu %7llu %6llu %6llu %10.3f\n",
                  static_cast<int>(op_width), name.c_str(),
                  static_cast<unsigned long long>(op.rows_in),
                  static_cast<unsigned long long>(op.rows_out), est,
                  static_cast<unsigned long long>(op.built),
                  static_cast<unsigned long long>(op.dedup_dropped),
                  static_cast<unsigned long long>(op.shards),
                  static_cast<unsigned long long>(op.invocations),
                  static_cast<double>(op.wall_ns) / 1e6);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu row(s) in %.3f ms, parallelism %d, backend %s\n",
                static_cast<unsigned long long>(result_rows),
                static_cast<double>(wall_ns) / 1e6, parallelism,
                backend.c_str());
  out += line;
  return out;
}

void QueryStats::AppendJson(std::string* out) const {
  *out += "{\"backend\":\"" + JsonEscape(backend) + "\",\"query\":\"" +
          JsonEscape(query) + "\",\"wall_ns\":" + std::to_string(wall_ns) +
          ",\"result_rows\":" + std::to_string(result_rows) +
          ",\"parallelism\":" + std::to_string(parallelism) +
          ",\"plan_cost\":" + JsonDouble(plan_cost) +
          ",\"operators\":[";
  for (size_t i = 0; i < operators.size(); ++i) {
    if (i > 0) *out += ",";
    operators[i].AppendJson(out);
  }
  *out += "]}";
}

int QueryStatsGroup::AddOp(std::string op, double est_rows) {
  nodes_.emplace_back(std::move(op), est_rows);
  return static_cast<int>(nodes_.size()) - 1;
}

void QueryStatsGroup::Record(int op_id, const OpSample& sample) {
  if (op_id < 0 || static_cast<size_t>(op_id) >= nodes_.size()) return;
  Node& node = nodes_[static_cast<size_t>(op_id)];
  node.rows_in.fetch_add(sample.rows_in, std::memory_order_relaxed);
  node.rows_out.fetch_add(sample.rows_out, std::memory_order_relaxed);
  node.dedup_dropped.fetch_add(sample.dedup_dropped,
                               std::memory_order_relaxed);
  node.shards.fetch_add(sample.shards, std::memory_order_relaxed);
  node.wall_ns.fetch_add(sample.wall_ns, std::memory_order_relaxed);
  node.invocations.fetch_add(sample.invocations, std::memory_order_relaxed);
  node.built.fetch_add(sample.built, std::memory_order_relaxed);
}

QueryStatsGroup* QueryStatsBuilder::AddGroup(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.emplace_back(std::move(name));
  return &groups_.back();
}

void QueryStatsBuilder::AddPlanCost(double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_cost_ += cost;
}

QueryStats QueryStatsBuilder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryStats stats;
  stats.plan_cost = plan_cost_;
  for (const QueryStatsGroup& group : groups_) {
    for (const QueryStatsGroup::Node& node : group.nodes_) {
      OperatorStats op;
      op.group = group.name();
      op.op = node.op;
      op.est_rows = node.est_rows;
      op.rows_in = node.rows_in.load(std::memory_order_relaxed);
      op.rows_out = node.rows_out.load(std::memory_order_relaxed);
      op.dedup_dropped = node.dedup_dropped.load(std::memory_order_relaxed);
      op.shards = node.shards.load(std::memory_order_relaxed);
      op.wall_ns = node.wall_ns.load(std::memory_order_relaxed);
      op.invocations = node.invocations.load(std::memory_order_relaxed);
      op.built = node.built.load(std::memory_order_relaxed);
      stats.operators.push_back(std::move(op));
    }
  }
  return stats;
}

}  // namespace nepal::obs
