// nepal_shell — an interactive NQL shell.
//
//   $ ./build/examples/nepal_shell schema.dsl [feed.txt ...] [--relational]
//   nepal> Retrieve P From PATHS P Where P MATCHES VNF()->VFC();
//   nepal> .explain Select count(P) From PATHS P Where P MATCHES VM();
//   nepal> .help
//
// Loads a schema (Nepal schema DSL) and zero or more inventory feed files,
// then evaluates NQL queries from stdin (terminated by ';'). Dot-commands:
//   .help               this text
//   .schema             print the schema back as DSL
//   .stats              node/edge/version counts and memory use
//   .load <feed-file>   replay another feed file
//   .export             dump the current snapshot as a feed
//   .explain <query>;   show anchor choice, programs and backend SQL
//   .quit               exit
// Observability commands:
//   \metrics [json]     dump the process-wide metrics registry
//   \timing             toggle per-query wall time + operator summary
//   \slow [json]        show the engine's slow-query log
//   \trace              list captured traces (queries and commits)
//   \trace json         dump the trace ring as JSON
//   \trace <id>         render one trace's span tree (hex trace id)
// Durability commands (src/persist):
//   \save <dir>         write a loadable snapshot of the current state
//   \load <dir>         open a data directory (recovers, then runs durably)
//   \checkpoint         rotate the WAL and write a checkpoint (durable mode)
// With --data-dir <dir> the shell opens the directory at startup (crash
// recovery included) and every subsequent write is logged to its WAL;
// --fsync always|interval|none picks the commit durability policy.
// Replication commands (src/replication):
//   --ship <addr>       (primary, needs --data-dir) serve the WAL to any
//                       number of followers: starts the fleet listener
//                       (resume, acks) on unix:<path> / tcp:<host>:<port>
//   --follow <addr>     (follower, needs --data-dir) bootstrap + tail the
//                       stream; reconnects and resumes across primary
//                       restarts. The shell is read-only
//   --name <name>       this follower's identity on the primary
//   --quorum <k>        (primary) semi-sync: each commit waits for k
//                       follower acks (degrades to async on timeout)
//   \replication        role, per-follower fleet table, lag, link status
//   \promote [<addr>]   stop applying and accept writes (failover); with
//                       an address, also start a fleet listener there so
//                       surviving followers can \repoint to this shell
//   \repoint <addr>     (socket follower) re-point at another primary
// Materialized views (src/views, durable mode only):
//   CREATE VIEW <name> AS <rpe> [AT '<time>'];   register + build a view
//   DROP VIEW <name>;   unregister a view
//   SERVE VIEW <name>;  answer from the cache (also: any matching query)
//   \views              list views with freshness/staleness and counters
// And EXPLAIN ANALYZE <query>; runs the query with per-operator stats.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "graphstore/graph_store.h"
#include "nepal/engine.h"
#include "netmodel/feed.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/durable_store.h"
#include "relational/relational_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "replication/socket_util.h"
#include "schema/dsl_parser.h"
#include "storage/graphdb.h"
#include "views/view_catalog.h"

namespace {

void PrintHelp() {
  std::printf(
      "Enter NQL queries terminated by ';'. Dot-commands:\n"
      "  .help / .schema / .stats / .load <file> / .export / .quit\n"
      "  .explain <query>;   show the plan (and backend SQL)\n"
      "Observability:\n"
      "  \\metrics [json]     dump the metrics registry (text or JSON)\n"
      "  \\timing             toggle per-query timing output\n"
      "  \\slow [json]        show the slow-query log (text or JSON)\n"
      "  \\trace              list captured traces (queries and commits)\n"
      "  \\trace json         dump the trace ring as JSON\n"
      "  \\trace <id>         render one trace's span tree (hex id)\n"
      "Durability:\n"
      "  \\save <dir>         write a loadable snapshot of the current state\n"
      "  \\load <dir>         open a data directory and switch to it\n"
      "  \\checkpoint         rotate the WAL and write a checkpoint\n"
      "Replication:\n"
      "  \\replication        role, per-follower fleet table, lag, status\n"
      "  \\promote [<addr>]   promote a follower to a writable primary\n"
      "                      (with <addr>: serve the fleet from there)\n"
      "  \\repoint <addr>     re-point a socket follower at a new primary\n"
      "Materialized views (durable mode):\n"
      "  CREATE VIEW <name> AS <rpe> [AT '<time>'];   register + build\n"
      "  DROP VIEW <name>;   unregister\n"
      "  SERVE VIEW <name>;  answer from the cache\n"
      "  \\views              list views (freshness, repairs, rebuilds)\n"
      "  EXPLAIN ANALYZE <query>;   per-operator execution stats\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nepal;
  bool relational = false;
  std::string data_dir;
  std::string ship_path;
  std::string follow_path;
  std::string follower_name = "follower";
  int quorum = 0;
  persist::DurableOptions durable_options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--relational") == 0) {
      relational = true;
    } else if (std::strcmp(argv[i], "--graphstore") == 0) {
      relational = false;
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--ship") == 0 && i + 1 < argc) {
      ship_path = argv[++i];
    } else if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
      follow_path = argv[++i];
    } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      follower_name = argv[++i];
    } else if (std::strcmp(argv[i], "--quorum") == 0 && i + 1 < argc) {
      quorum = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--fsync") == 0 && i + 1 < argc) {
      auto policy = persist::ParseFsyncPolicy(argv[++i]);
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return 2;
      }
      durable_options.fsync_policy = *policy;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: nepal_shell <schema.dsl> [feed.txt ...] "
                 "[--relational|--graphstore] [--data-dir <dir>] "
                 "[--fsync always|interval|none] "
                 "[--ship <addr>] [--follow <addr>] "
                 "[--name <follower>] [--quorum <k>]\n"
                 "  <addr>: unix:<path> | tcp:<host>:<port>\n");
    return 2;
  }
  if ((!ship_path.empty() || !follow_path.empty()) && data_dir.empty()) {
    std::fprintf(stderr, "--ship/--follow require --data-dir\n");
    return 2;
  }
  if (!ship_path.empty() && !follow_path.empty()) {
    std::fprintf(stderr, "--ship and --follow are mutually exclusive\n");
    return 2;
  }
  replication::SocketAddress repl_address;
  if (!ship_path.empty() || !follow_path.empty()) {
    auto address = replication::ParseSocketAddress(
        ship_path.empty() ? follow_path : ship_path);
    if (!address.ok()) {
      std::fprintf(stderr, "%s\n", address.status().ToString().c_str());
      return 2;
    }
    repl_address = std::move(*address);
  }

  // Interactive volume is human-scale, so trace every request — the
  // `\trace` commands need material, and commit annotations must ride the
  // shipped frames for a follower to join.
  {
    obs::Tracer::Options trace_options;
    trace_options.sample_rate = 1.0;
    trace_options.ring_capacity = 64;
    obs::Tracer::Global().Configure(trace_options);
  }

  // Schema.
  std::string schema_text;
  {
    FILE* f = std::fopen(files[0].c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open schema file %s\n", files[0].c_str());
      return 2;
    }
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      schema_text.append(buf, n);
    }
    std::fclose(f);
  }
  auto schema = schema::ParseSchemaDsl(schema_text);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }

  auto make_backend =
      [relational](schema::SchemaPtr s) -> std::unique_ptr<storage::StorageBackend> {
    if (relational) return std::make_unique<relational::RelationalStore>(std::move(s));
    return std::make_unique<graphstore::GraphStore>(std::move(s));
  };
  auto print_recovery = [](const persist::DurableStore& store) {
    const persist::RecoveryInfo& info = store.recovery_info();
    std::printf("data dir %s: %s, %zu record(s) replayed from %zu segment(s)%s\n",
                store.dir().c_str(),
                info.restored_checkpoint ? "checkpoint restored"
                                         : "no checkpoint",
                info.records_replayed, info.segments_replayed,
                info.torn_tail ? " (torn tail truncated)" : "");
  };

  std::unique_ptr<storage::GraphDb> mem_db;              // in-memory mode
  std::unique_ptr<persist::DurableStore> store;          // durable mode
  std::unique_ptr<replication::ReplicaStore> replica;    // follower mode
  std::unique_ptr<replication::ReplicationListener> listener;  // fleet ship
  // Declared after `store`: the catalog tails the store's WAL and must be
  // destroyed (thread joined, subscription dropped) before the store.
  std::unique_ptr<views::ViewCatalog> views_catalog;     // durable mode
  storage::GraphDb* db = nullptr;
  if (!follow_path.empty()) {
    std::printf("follower '%s': connecting to %s ...\n",
                follower_name.c_str(), follow_path.c_str());
    std::fflush(stdout);
    replication::ConnectOptions connect_options;
    connect_options.replica.durable = durable_options;
    connect_options.name = follower_name;
    auto opened = replication::ReplicaStore::Connect(
        data_dir, *schema, make_backend, repl_address, connect_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    replica = std::move(*opened);
    std::printf("follower '%s': bootstrapped from the primary's "
                "checkpoint; resumes across disconnects; read-only until "
                "\\promote\n",
                follower_name.c_str());
    db = &replica->db();
  } else if (!data_dir.empty()) {
    auto opened = persist::DurableStore::Open(data_dir, *schema, make_backend,
                                              durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
    db = &store->db();
    print_recovery(*store);
    if (!ship_path.empty()) {
      auto started =
          replication::ReplicationListener::Start(*store, repl_address);
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
        return 1;
      }
      listener = std::move(*started);
      std::printf("primary: replication listener on %s\n",
                  listener->address().ToString().c_str());
      if (quorum > 0) {
        persist::DurableStore::SemiSyncOptions semisync;
        semisync.quorum = quorum;
        store->SetSemiSync(semisync);
        std::printf("primary: semi-sync commits, quorum=%d (degrades to "
                    "async after %d ms)\n",
                    quorum, semisync.timeout_ms);
      }
    }
  } else {
    mem_db = std::make_unique<storage::GraphDb>(*schema, make_backend(*schema));
    db = mem_db.get();
  }
  if (replica != nullptr && files.size() > 1) {
    std::fprintf(stderr,
                 "a follower is read-only; feed files cannot be loaded\n");
    return 2;
  }
  auto loader = std::make_unique<netmodel::FeedLoader>(db);
  for (size_t i = 1; i < files.size(); ++i) {
    auto stats = loader->LoadFile(files[i]);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %s\n", files[i].c_str(),
                stats->ToString().c_str());
  }
  auto engine = std::make_unique<nql::QueryEngine>(db);
  {
    nql::SourceDescriptor local;
    local.db = db;
    local.role = replica != nullptr ? nql::SourceRole::kReplica
                                    : nql::SourceRole::kPrimary;
    engine->catalog().Register("local", local).IgnoreError();
  }
  // Materialized views ride the durable store's WAL subscription; without
  // one there is nothing to maintain views from.
  auto attach_views = [&]() {
    if (store == nullptr) return;
    auto opened_views = views::ViewCatalog::Open(store.get());
    if (!opened_views.ok()) {
      std::fprintf(stderr, "view catalog: %s\n",
                   opened_views.status().ToString().c_str());
      return;
    }
    views_catalog = std::move(*opened_views);
    engine->set_view_provider(views_catalog.get());
  };
  attach_views();
  std::printf("Nepal shell — backend: %s. Type .help for help.\n",
              db->backend().name().c_str());

  std::string pending;
  std::string line;
  bool timing = false;
  while (true) {
    std::fputs(pending.empty() ? "nepal> " : "  ...> ", stdout);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    if (pending.empty() && !line.empty() && line[0] == '\\') {
      if (line == "\\metrics") {
        std::printf("%s", obs::MetricsRegistry::Global().RenderText().c_str());
      } else if (line == "\\metrics json") {
        std::printf("%s\n",
                    obs::MetricsRegistry::Global().RenderJson().c_str());
      } else if (line == "\\timing") {
        timing = !timing;
        std::printf("timing %s\n", timing ? "on" : "off");
      } else if (line == "\\slow") {
        auto slow = engine->SlowQueries();
        if (slow.empty()) std::printf("slow-query log is empty\n");
        for (const auto& entry : slow) {
          std::printf("%10.3f ms  %zu row(s)  %s\n",
                      static_cast<double>(entry.wall_ns) / 1e6, entry.rows,
                      entry.query.c_str());
        }
      } else if (line == "\\slow json") {
        auto slow = engine->SlowQueries();
        std::string out = "{\"slow_queries\":[";
        for (size_t i = 0; i < slow.size(); ++i) {
          if (i > 0) out += ",";
          out += "{\"query\":\"" + obs::JsonEscape(slow[i].query) +
                 "\",\"wall_ns\":" + std::to_string(slow[i].wall_ns) +
                 ",\"rows\":" + std::to_string(slow[i].rows) + "}";
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
      } else if (line == "\\trace") {
        auto traces = obs::Tracer::Global().Completed();
        if (traces.empty()) {
          std::printf("trace ring is empty\n");
        } else {
          for (const auto& t : traces) {
            std::printf("%016llx  %-12s %10.3f ms  %zu span(s)\n",
                        static_cast<unsigned long long>(t->trace_id()),
                        t->root_name().c_str(),
                        static_cast<double>(t->duration_ns()) / 1e6,
                        t->SpanCount());
          }
          std::printf("(\\trace <id> renders one span tree)\n");
        }
      } else if (line == "\\trace json") {
        std::printf("%s\n", obs::Tracer::Global().ExportJson().c_str());
      } else if (line.rfind("\\trace ", 0) == 0) {
        const uint64_t id =
            std::strtoull(line.substr(7).c_str(), nullptr, 16);
        auto t = obs::Tracer::Global().Find(id);
        if (t == nullptr) {
          std::printf("no trace %s in the ring\n", line.substr(7).c_str());
        } else {
          std::printf("%s", t->ToText().c_str());
        }
      } else if (line.rfind("\\save ", 0) == 0) {
        auto s = persist::DurableStore::SaveSnapshot(line.substr(6), *db);
        std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      } else if (line.rfind("\\load ", 0) == 0) {
        auto opened = persist::DurableStore::Open(line.substr(6), *schema,
                                                  make_backend,
                                                  durable_options);
        if (!opened.ok()) {
          std::printf("error: %s\n", opened.status().ToString().c_str());
          continue;
        }
        engine.reset();
        loader.reset();
        views_catalog.reset();       // tails the store being replaced
        store = std::move(*opened);  // detaches and frees any previous store
        mem_db.reset();
        db = &store->db();
        loader = std::make_unique<netmodel::FeedLoader>(db);
        engine = std::make_unique<nql::QueryEngine>(db);
        attach_views();
        print_recovery(*store);
      } else if (line == "\\checkpoint") {
        if (store == nullptr) {
          std::printf("not in durable mode; start with --data-dir or use "
                      "\\load <dir>\n");
        } else {
          auto s = store->Checkpoint();
          std::printf("%s\n", s.ok() ? "checkpoint written" : s.ToString().c_str());
        }
      } else if (line == "\\replication") {
        auto& registry = obs::MetricsRegistry::Global();
        if (replica != nullptr) {
          std::printf("role: follower%s\n",
                      replica->promoted() ? " (promoted)" : "");
          std::printf("applied: %llu record(s), lag %lld ms\n",
                      static_cast<unsigned long long>(
                          replica->records_applied()),
                      static_cast<long long>(
                          registry.GetGauge("nepal.replication.lag_ms")
                              ->Value()));
          const uint64_t skew_clamped =
              registry
                  .GetCounter("nepal.replication.clock_skew_clamped")
                  ->Value();
          if (skew_clamped > 0) {
            // Frames stamped "in the future" mean the primary's clock runs
            // ahead; the lag figure above is biased low.
            std::printf("clock skew: %llu frame batch(es) clamped to 0 ms "
                        "lag (primary clock ahead)\n",
                        static_cast<unsigned long long>(skew_clamped));
          }
          const auto traced = replica->last_traced_apply();
          if (traced.trace_id != 0) {
            // The follower half of commit-to-visible, keyed by the
            // primary's trace id (the CI drill greps this line).
            std::printf("joined trace: %016llx  wire %.3f ms, decode %.3f "
                        "ms, apply %.3f ms (%llu frame(s))\n",
                        static_cast<unsigned long long>(traced.trace_id),
                        static_cast<double>(traced.wire_us) / 1e3,
                        static_cast<double>(traced.decode_us) / 1e3,
                        static_cast<double>(traced.apply_us) / 1e3,
                        static_cast<unsigned long long>(traced.frames));
          }
          if (replica->reconnects() > 0 || replica->resumes() > 0 ||
              replica->rebootstraps() > 0) {
            std::printf("fleet: %llu reconnect(s), %llu resume(s), "
                        "%llu re-bootstrap(s)\n",
                        static_cast<unsigned long long>(
                            replica->reconnects()),
                        static_cast<unsigned long long>(replica->resumes()),
                        static_cast<unsigned long long>(
                            replica->rebootstraps()));
          }
          std::printf("link: %s\n", replica->status().ToString().c_str());
        } else if (listener != nullptr) {
          std::printf("role: primary (fleet listener on %s)\n",
                      listener->address().ToString().c_str());
          std::printf("sessions: %llu accepted, %llu resume(s), "
                      "%llu bootstrap(s)\n",
                      static_cast<unsigned long long>(
                          listener->sessions_accepted()),
                      static_cast<unsigned long long>(listener->resumes()),
                      static_cast<unsigned long long>(
                          listener->bootstraps()));
          if (quorum > 0) {
            std::printf("semi-sync: quorum=%d, %s\n", quorum,
                        store->semisync_degraded()
                            ? "DEGRADED to async (quorum unreachable)"
                            : "armed");
          }
          auto followers = listener->Followers();
          if (followers.empty()) {
            std::printf("no followers connected yet\n");
          } else {
            std::printf("%-16s %-9s %-7s %10s %10s %12s %9s\n", "follower",
                        "state", "mode", "frames", "acked", "lag(rec)",
                        "stale(ms)");
            for (const auto& f : followers) {
              std::printf("%-16s %-9s %-7s %10llu %10llu %12llu %9u\n",
                          f.name.c_str(),
                          f.connected ? "connected" : "gone",
                          f.resumed ? "resume" : "boot",
                          static_cast<unsigned long long>(f.frames_shipped),
                          static_cast<unsigned long long>(f.acked_records),
                          static_cast<unsigned long long>(f.lag_records),
                          f.staleness_ms);
            }
          }
        } else {
          std::printf("role: standalone (no --ship/--follow)\n");
        }
        std::printf("sources:\n%s", engine->catalog().Describe().c_str());
      } else if (line == "\\views") {
        if (views_catalog == nullptr) {
          std::printf("materialized views need durable mode; start with "
                      "--data-dir or use \\load <dir>\n");
        } else {
          auto infos = views_catalog->List();
          if (infos.empty()) {
            std::printf("no views registered; CREATE VIEW <name> AS "
                        "<rpe>;\n");
          }
          for (const auto& info : infos) {
            std::printf(
                "%-16s %s  [%s]\n"
                "  epoch %llu (%llu behind), %zu path(s), "
                "%llu repair(s), %llu rebuild(s), %llu skipped%s\n"
                "  footprint %s\n",
                info.name.c_str(), info.rpe.c_str(), info.mode.c_str(),
                static_cast<unsigned long long>(info.fresh_epoch),
                static_cast<unsigned long long>(info.staleness),
                info.paths,
                static_cast<unsigned long long>(info.repairs),
                static_cast<unsigned long long>(info.rebuilds),
                static_cast<unsigned long long>(info.skipped_records),
                info.rebuild_pending ? " (rebuild pending)" : "",
                info.footprint.c_str());
          }
        }
      } else if (line == "\\promote" || line.rfind("\\promote ", 0) == 0) {
        const std::string listen_addr =
            line.size() > 9 ? line.substr(9) : std::string();
        Result<replication::SocketAddress> address =
            listen_addr.empty() ? replication::SocketAddress{}
                                : replication::ParseSocketAddress(listen_addr);
        if (replica == nullptr) {
          std::printf("not a follower; start with --follow <addr>\n");
        } else if (replica->promoted()) {
          std::printf("already promoted\n");
        } else if (!address.ok()) {
          std::printf("error: %s\n", address.status().ToString().c_str());
        } else {
          auto s = replica->Promote();
          if (!s.ok()) {
            std::printf("error: %s\n", s.ToString().c_str());
          } else {
            nql::SourceDescriptor local;
            local.db = db;
            engine->catalog().Register("local", local).IgnoreError();
            std::printf("promoted: this shell now accepts writes\n");
            // With an address, the new primary immediately serves the
            // rest of the fleet — survivors \repoint here.
            if (!listen_addr.empty()) {
              auto started = replication::ReplicationListener::Start(
                  replica->store(), *address);
              if (!started.ok()) {
                std::printf("error: %s\n",
                            started.status().ToString().c_str());
              } else {
                listener = std::move(*started);
                std::printf("promoted primary: replication listener on %s\n",
                            listener->address().ToString().c_str());
              }
            }
          }
        }
      } else if (line.rfind("\\repoint ", 0) == 0) {
        const std::string target = line.substr(9);
        if (replica == nullptr) {
          std::printf("not a follower; start with --follow <addr>\n");
        } else {
          auto address = replication::ParseSocketAddress(target);
          if (!address.ok()) {
            std::printf("error: %s\n", address.status().ToString().c_str());
            continue;
          }
          const uint64_t before = replica->rebootstraps();
          replica->Repoint(*address);
          // Re-pointing always re-bootstraps (the old position means
          // nothing against a different primary's WAL); wait for the new
          // generation so the shell can rebind to its database.
          std::printf("repointing to %s ...\n", target.c_str());
          std::fflush(stdout);
          bool bootstrapped = false;
          for (int i = 0; i < 600; ++i) {  // up to ~60 s
            if (replica->rebootstraps() > before) {
              bootstrapped = true;
              break;
            }
            if (!replica->serving()) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          if (!bootstrapped) {
            std::printf("repoint pending: %s\n",
                        replica->status().ToString().c_str());
            continue;
          }
          // The follower swapped to a fresh generation; rebind everything
          // that held the old database pointer.
          engine.reset();
          loader.reset();
          db = &replica->db();
          loader = std::make_unique<netmodel::FeedLoader>(db);
          engine = std::make_unique<nql::QueryEngine>(db);
          {
            nql::SourceDescriptor local;
            local.db = db;
            local.role = nql::SourceRole::kReplica;
            engine->catalog().Register("local", local).IgnoreError();
          }
          std::printf("repointed: re-bootstrapped from %s\n",
                      target.c_str());
        }
      } else {
        std::printf("unknown command; try .help\n");
      }
      continue;
    }
    if (pending.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") break;
      if (line == ".help") {
        PrintHelp();
        continue;
      }
      if (line == ".schema") {
        std::printf("%s", db->schema().ToDsl().c_str());
        continue;
      }
      if (line == ".stats") {
        std::printf("%zu nodes, %zu edges, %zu versions, ~%.1f MB, now=%s\n",
                    db->node_count(), db->edge_count(),
                    db->backend().VersionCount(),
                    static_cast<double>(db->backend().MemoryUsage()) / 1e6,
                    FormatTimestamp(db->Now()).c_str());
        continue;
      }
      if (line.rfind(".load ", 0) == 0) {
        auto stats = loader->LoadFile(line.substr(6));
        if (!stats.ok()) {
          std::printf("error: %s\n", stats.status().ToString().c_str());
        } else {
          std::printf("%s\n", stats->ToString().c_str());
        }
        continue;
      }
      if (line == ".export") {
        size_t skipped = 0;
        std::printf("%s", netmodel::ExportFeed(*db, &skipped).c_str());
        if (skipped > 0) {
          std::printf("# %zu unnamed element(s) skipped\n", skipped);
        }
        continue;
      }
      if (line.rfind(".explain ", 0) == 0) {
        pending = "\x01" + line.substr(9);  // marker: explain mode
        if (pending.find(';') == std::string::npos) continue;
      } else {
        std::printf("unknown command; try .help\n");
        continue;
      }
    } else {
      pending += (pending.empty() ? "" : "\n") + line;
    }

    size_t semi = pending.find(';');
    if (semi == std::string::npos) continue;
    bool explain = !pending.empty() && pending[0] == '\x01';
    std::string query = pending.substr(explain ? 1 : 0,
                                       semi - (explain ? 1 : 0));
    pending.clear();
    if (explain) {
      auto plan = engine->Explain(query);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      } else {
        std::printf("%s", plan->c_str());
      }
      continue;
    }
    // CREATE / DROP VIEW act on the view catalog; everything else —
    // SERVE VIEW included — goes to the engine.
    if (auto ddl = nql::ParseViewDdl(query);
        ddl.ok() && ddl->has_value() &&
        (*ddl)->kind != nql::ViewDdl::Kind::kServe) {
      if (views_catalog == nullptr) {
        std::printf("materialized views need durable mode; start with "
                    "--data-dir or use \\load <dir>\n");
        continue;
      }
      Status s = (*ddl)->kind == nql::ViewDdl::Kind::kCreate
                     ? views_catalog->CreateView((*ddl)->name, (*ddl)->rpe,
                                                 (*ddl)->as_of)
                     : views_catalog->DropView((*ddl)->name);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
      } else if ((*ddl)->kind == nql::ViewDdl::Kind::kCreate) {
        std::printf("view %s built; \\views shows freshness\n",
                    (*ddl)->name.c_str());
      } else {
        std::printf("view %s dropped\n", (*ddl)->name.c_str());
      }
      continue;
    }
    auto result = engine->Run(query);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
    } else {
      std::printf("%s", result->ToString(50).c_str());
      if (timing) {
        auto stats = engine->LastQueryStats();
        std::printf("Time: %.3f ms  (%zu operator(s), parallelism %d)\n",
                    static_cast<double>(stats.wall_ns) / 1e6,
                    stats.operators.size(), stats.parallelism);
      }
    }
  }
  std::printf("\n");
  return 0;
}
