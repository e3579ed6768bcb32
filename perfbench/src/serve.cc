// The server side of the benchmark: one child process that makes the public
// calls examples/streamets_serve makes, in the order it makes them (state
// store, recovery restore, executor, IngestServer), serves one iteration,
// and reports on its stdout pipe:
//
//   READY <port>          once Start (and any WAL replay) is done
//   RESULT {json}         after Run returns, also before a scheduled crash
//
// With --trace 1 it also records spans around those calls, around every
// Executor::RunStep (a DfsExecutor subclass) and around the sink callback.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/clock.h"
#include "exec/dfs_executor.h"
#include "net/ingest_server.h"
#include "operators/filter.h"
#include "operators/sink.h"
#include "operators/union_op.h"
#include "operators/window_join.h"
#include "recovery/recovery_manager.h"
#include "sim/experiment_spec.h"

namespace perfbench {
namespace {

using dsms::Operator;

dsms::IngestServer* g_server = nullptr;

void HandleStop(int) {
  if (g_server != nullptr) g_server->Stop();
}

// Sources never take executor steps (ingest runs in the server's delivery
// path), so they have no kind here.
enum OpKind { kFilter, kUnion, kJoin, kSink, kOther, kNumKinds };
const char* const kKindNames[kNumKinds] = {"filter", "union", "window_join",
                                           "sink", "other"};

OpKind KindOf(const Operator* op) {
  if (dynamic_cast<const dsms::Filter*>(op) ||
      dynamic_cast<const dsms::RandomDropFilter*>(op)) {
    return kFilter;
  }
  if (dynamic_cast<const dsms::Union*>(op)) return kUnion;
  if (dynamic_cast<const dsms::WindowJoin*>(op)) return kJoin;
  if (dynamic_cast<const dsms::Sink*>(op)) return kSink;
  return kOther;
}

/// The DFS executor the server runs. The server loop calls RunStep on every
/// pass, idle or not, so each call publishes how many frames Run has
/// ingested, for the generator's window (common.h). With tracing on, each
/// RunStep is timed: the step's time goes to the kind of the operator whose
/// public OperatorStats::steps moved; a step that moved none (an ETS
/// sweep, an idle return) stays with the executor.
class BenchExecutor : public dsms::DfsExecutor {
 public:
  BenchExecutor(dsms::QueryGraph* graph, dsms::VirtualClock* clock,
                dsms::ExecConfig config, bool trace)
      : DfsExecutor(graph, clock, config), trace_(trace) {
    for (const auto& op : graph->operators()) {
      ops_.push_back(op.get());
      kinds_.push_back(KindOf(op.get()));
      last_steps_.push_back(op->stats().steps);
    }
  }

  /// Starts publishing `server`'s ingested frames, counted from now, to
  /// `progress`.
  void PublishProgress(const dsms::IngestServer* server,
                       std::atomic<uint64_t>* progress) {
    server_ = server;
    progress_ = progress;
    base_ = server->frames_ingested();
  }

  /// Stops `server` at the engine's next idle return: once the work in
  /// hand is done, before any idle pass can move the clock.
  void StopAtIdle(dsms::IngestServer* server) { stop_at_idle_ = server; }

  bool RunStep() override {
    if (progress_ != nullptr) {
      progress_->store(server_->frames_ingested() - base_,
                       std::memory_order_relaxed);
    }
    const bool ran = trace_ ? TracedStep() : DfsExecutor::RunStep();
    if (!ran && stop_at_idle_ != nullptr) stop_at_idle_->Stop();
    return ran;
  }

  void Publish(Record* r) const {
    if (!trace_) return;
    (*r)["t.step_ns"] = static_cast<double>(step_ns_);
    (*r)["t.idle_returns"] = static_cast<double>(idle_returns_);
    (*r)["t.exec_only_ns"] = static_cast<double>(unmoved_ns_);
    for (int k = 0; k < kNumKinds; ++k) {
      (*r)[std::string("t.op.") + kKindNames[k] + "_ns"] =
          static_cast<double>(kind_ns_[k]);
    }
  }

 private:
  bool TracedStep() {
    const int64_t t0 = MonoNs();
    const bool ran = DfsExecutor::RunStep();
    const int64_t dt = MonoNs() - t0;
    step_ns_ += dt;
    if (!ran) ++idle_returns_;
    int moved = -1;
    for (size_t i = 0; i < ops_.size(); ++i) {
      const uint64_t steps = ops_[i]->stats().steps;
      if (steps != last_steps_[i]) {
        last_steps_[i] = steps;
        moved = static_cast<int>(i);
      }
    }
    if (moved >= 0) {
      kind_ns_[kinds_[moved]] += dt;
    } else {
      unmoved_ns_ += dt;
    }
    return ran;
  }

  const bool trace_;
  const dsms::IngestServer* server_ = nullptr;
  dsms::IngestServer* stop_at_idle_ = nullptr;
  std::atomic<uint64_t>* progress_ = nullptr;
  uint64_t base_ = 0;
  std::vector<const Operator*> ops_;
  std::vector<OpKind> kinds_;
  std::vector<uint64_t> last_steps_;
  int64_t step_ns_ = 0;
  int64_t unmoved_ns_ = 0;
  int64_t kind_ns_[kNumKinds] = {};
  uint64_t idle_returns_ = 0;
};

/// Watches the sink's input arc: every data tuple the sink pops is an
/// emission. Records the wall time of the last one, checks timestamp order,
/// times a host-speed slice every 512th emission (~0.1% of the union's
/// server CPU), and takes latency samples (ms) into a file for
/// `perfbench drive`:
///  - paced frames carry their due time (value 0) and sequence (value 1):
///    wall-clock latency from due time, for every tuple, plus an exactly-
///    once record of the sequences;
///  - replayed frames run on the frame-driven clock: virtual latency from
///    arrival, as the sink's LatencyRecorder measures it, for every 8th
///    tuple (~130k samples per million).
class EmitProbe : public dsms::BufferListener {
 public:
  EmitProbe(const dsms::VirtualClock* clock, bool paced)
      : clock_(clock), paced_(paced) {}

  void OnPush(const dsms::StreamBuffer&, const dsms::Tuple&) override {}
  void OnPop(const dsms::StreamBuffer&, const dsms::Tuple& tuple) override {
    if (!tuple.is_data()) return;
    if (emitted_ % 512 == 0) slices_.push_back(SpeedSliceNs());
    const int64_t now = MonoNs();
    last_emit_ns_ = now;
    ++emitted_;
    // IWP operators promise timestamp-ordered output.
    if (tuple.has_timestamp()) {
      if (tuple.timestamp() < last_ts_) ++order_breaks_;
      last_ts_ = tuple.timestamp();
    }
    if (!paced_) {
      if (emitted_ % 8 == 0) {
        samples_.push_back(
            static_cast<double>(clock_->now() - tuple.arrival_time()) / 1e3);
      }
      return;
    }
    const int64_t due = tuple.value(0).int64_value();
    const int64_t seq = tuple.value(1).int64_value();
    samples_.push_back(static_cast<double>(now - due) / 1e6);
    if (seq < 0) return;
    const size_t s = static_cast<size_t>(seq);
    if (s >= seen_.size()) seen_.resize(s + 1 + s / 2, 0);
    if (seen_[s]) {
      ++duplicates_;
    } else {
      seen_[s] = 1;
      seq_hash_ += SeqMix(s);
    }
  }

  void Publish(Record* r, const std::string& samples_path) {
    // A short run emits few tuples; it still gets a usable median.
    while (slices_.size() < 16) slices_.push_back(SpeedSliceNs());
    (*r)["host_slice_ns"] = Percentile(&slices_, 0.5);
    (*r)["emitted"] = static_cast<double>(emitted_);
    (*r)["order_breaks"] = static_cast<double>(order_breaks_);
    (*r)["last_emit_ns"] = static_cast<double>(last_emit_ns_);
    (*r)["lat_samples"] = static_cast<double>(samples_.size());
    if (paced_) {
      (*r)["duplicates"] = static_cast<double>(duplicates_);
      (*r)["seq_hash_hi"] = static_cast<double>(seq_hash_ >> 32);
      (*r)["seq_hash_lo"] = static_cast<double>(seq_hash_ & 0xffffffffULL);
    }
    if (samples_path.empty()) return;
    std::ofstream out(samples_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(samples_.data()),
              static_cast<std::streamsize>(samples_.size() * sizeof(double)));
  }

 private:
  const dsms::VirtualClock* clock_;
  bool paced_;
  int64_t last_emit_ns_ = 0;
  uint64_t emitted_ = 0;
  dsms::Timestamp last_ts_ = dsms::kMinTimestamp;
  uint64_t order_breaks_ = 0;
  std::vector<double> samples_;
  std::vector<double> slices_;
  std::vector<uint8_t> seen_;
  uint64_t duplicates_ = 0;
  uint64_t seq_hash_ = 0;
};

struct ServeArgs {
  std::string plan;
  std::string samples;
  std::string progress;
  bool frame_clock = true;
  bool no_crash = false;
  bool stop_at_idle = false;
  bool trace = false;
  bool unlimited = false;
  int core = -1;
};

int Fail(const char* what, const dsms::Status& status) {
  std::fprintf(stderr, "perfbench serve: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

}  // namespace

int ServeMain(int argc, char** argv) {
  using namespace dsms;
  ServeArgs a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--plan" && has_value) {
      a.plan = argv[++i];
    } else if (arg == "--samples" && has_value) {
      a.samples = argv[++i];
    } else if (arg == "--progress" && has_value) {
      a.progress = argv[++i];
    } else if (arg == "--clock" && has_value) {
      a.frame_clock = std::string(argv[++i]) == "frame";
    } else if (arg == "--core" && has_value) {
      a.core = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--no-crash") {
      a.no_crash = true;
    } else if (arg == "--stop-at-idle") {
      a.stop_at_idle = true;
    } else if (arg == "--unlimited") {
      a.unlimited = true;
    } else {
      std::fprintf(stderr, "perfbench serve: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  PinToCore(a.core);
  Record r;
  auto span = [&](const char* key, auto&& fn) {
    const int64_t t0 = MonoNs();
    auto result = fn();
    r[key] += static_cast<double>(MonoNs() - t0);
    return result;
  };

  std::ifstream file(a.plan);
  std::ostringstream contents;
  contents << file.rdbuf();
  Result<Experiment> experiment =
      ParseExperiment(contents.str(), /*require_feeds=*/false);
  if (!experiment.ok()) return Fail("parse", experiment.status());
  // As `streamets_run --mem-budget 0`: the state store never spills.
  if (a.unlimited) experiment->storage.mem_budget = 0;

  IngestServerOptions options;
  options.clock_mode = a.frame_clock ? IngestClock::Mode::kFrameDriven
                                     : IngestClock::Mode::kWallClock;
  options.horizon = experiment->run.horizon;
  if (!a.no_crash) options.crash_at = experiment->recovery.crash_at;
  // A hang guard only; a healthy iteration ends long before it.
  options.wall_limit = 120 * kSecond;

  QueryGraph* graph = experiment->plan.graph.get();
  VirtualClock clock;
  ExecConfig config;
  config.ets.mode = experiment->run.ets;
  config.ets.min_interval = experiment->run.ets_min_interval;
  config.batch_size = experiment->run.batch;
  if (experiment->storage.enabled) {
    StorageConfig storage_config;
    storage_config.mem_budget = experiment->storage.mem_budget;
    storage_config.spill_dir = experiment->storage.spill_dir;
    storage_config.granularity = experiment->storage.granularity;
    storage_config.overload = experiment->run.overload;
    Status configured = graph->ConfigureStateStore(storage_config);
    if (!configured.ok()) return Fail("state store", configured);
  }

  std::unique_ptr<RecoveryManager> recovery;
  if (experiment->recovery.wal) {
    RecoveryOptions ropts;
    ropts.dir = experiment->recovery.dir;
    ropts.wal = true;
    ropts.sync = experiment->recovery.sync;
    ropts.sync_interval_bytes = experiment->recovery.sync_interval_bytes;
    ropts.segment_bytes = experiment->recovery.segment_bytes;
    ropts.checkpoint = experiment->recovery.checkpoint;
    ropts.checkpoint_horizon = experiment->recovery.checkpoint_horizon;
    ropts.keep = experiment->recovery.keep;
    recovery = std::make_unique<RecoveryManager>(ropts);
    Status opened = span("t.open_ns", [&] { return recovery->Open(); });
    if (!opened.ok()) return Fail("recovery open", opened);
    span("t.restore_ns", [&] {
      recovery->RestoreGraph(graph, &clock);
      return 0;
    });
  }

  config.shard_mode = ShardMode::kDeterministic;
  auto executor =
      std::make_unique<BenchExecutor>(graph, &clock, config, a.trace);
  if (recovery != nullptr) {
    span("t.restore_ns", [&] {
      recovery->RestoreExecutor(executor.get());
      return 0;
    });
    Status attached = recovery->AttachSinks(graph);
    if (!attached.ok()) return Fail("attach sinks", attached);
  }
  if (recovery != nullptr && recovery->recovered()) {
    options.horizon =
        options.horizon > clock.now() ? options.horizon - clock.now() : 0;
  }

  IngestServer server(graph, executor.get(), &clock, options);
  server.set_violation_policy(experiment->run.violations);
  if (recovery != nullptr) {
    server.AttachRecovery(recovery.get());
    if (!recovery->recovered_net_blob().empty()) {
      Status restored = server.RestoreNetState(recovery->recovered_net_blob());
      if (!restored.ok()) return Fail("restore net state", restored);
    }
  }

  // Output digest over every delivered tuple. With a WAL the recovery
  // manager owns the sink callback (DurableSink) and drive.cc compares the
  // sink file it writes instead.
  Sink* sink = graph->sinks().front();
  uint64_t digest = kFnvOffset;
  int64_t sink_cb_ns = 0;
  if (recovery == nullptr) {
    sink->set_callback([&digest, &sink_cb_ns, &a](const Tuple& t, Timestamp) {
      const int64_t t0 = a.trace ? MonoNs() : 0;
      digest = TupleDigest(digest, t);
      if (a.trace) sink_cb_ns += MonoNs() - t0;
    });
  }
  EmitProbe probe(&clock, !a.frame_clock);
  sink->input(0)->AddListener(&probe);

  Status status = server.Start();
  if (!status.ok()) return Fail("start", status);
  if (recovery != nullptr && recovery->recovered()) {
    status = span("t.replay_ns", [&] { return server.ReplayRecoveredWal(); });
    if (!status.ok()) return Fail("wal replay", status);
  }
  if (!a.progress.empty()) {
    std::atomic<uint64_t>* progress = MapProgress(a.progress);
    if (progress == nullptr) {
      return Fail("progress", InternalError("cannot map " + a.progress));
    }
    executor->PublishProgress(&server, progress);
  }
  if (a.stop_at_idle) executor->StopAtIdle(&server);
  g_server = &server;
  std::signal(SIGTERM, HandleStop);
  // After a restore the server's counters also hold the checkpointed and
  // replayed frames; the rates are over what Run takes from the socket.
  const uint64_t frames_before_run = server.frames_ingested();
  const uint64_t bytes_before_run = server.bytes_received();
  std::printf("READY %u\n", server.port());
  std::fflush(stdout);

  const double cpu0 = ProcessCpuUs();
  status = server.Run();
  const double cpu1 = ProcessCpuUs();
  g_server = nullptr;
  // The scheduled crash: report, then die the way streamets_serve does,
  // with no final checkpoint and no WAL or sink flush.
  const bool crashed = status.code() == StatusCode::kAborted;
  if (!crashed && !status.ok()) return Fail("serve", status);
  if (recovery != nullptr && !crashed) {
    Status ckpt =
        span("t.checkpoint_ns", [&] { return server.CheckpointNow(); });
    if (!ckpt.ok()) return Fail("final checkpoint", ckpt);
    Status flushed = recovery->FlushWal();
    if (flushed.ok()) flushed = recovery->FlushSinks();
    if (!flushed.ok()) return Fail("flush", flushed);
  }

  r["cpu_us"] = cpu1 - cpu0;
  r["rss_mb"] = PeakRssMb();
  r["frames"] =
      static_cast<double>(server.frames_ingested() - frames_before_run);
  r["bytes"] = static_cast<double>(server.bytes_received() - bytes_before_run);
  r["decode_errors"] = static_cast<double>(server.decode_errors());
  r["resume_rejects"] = static_cast<double>(server.resume_rejects());
  r["admission_rejects"] = static_cast<double>(server.admission_rejects());
  r["degraded_shed_frames"] =
      static_cast<double>(server.degraded_shed_frames());
  uint64_t protocol_errors = 0;
  for (const ConnectionReport& c : server.connection_reports()) {
    protocol_errors += c.protocol_errors;
  }
  r["protocol_errors"] = static_cast<double>(protocol_errors);
  r["shed_tuples"] = static_cast<double>(graph->TotalShedTuples());
  r["order_dropped"] = static_cast<double>(server.order_validator().dropped());
  r["quarantined"] =
      static_cast<double>(server.order_validator().quarantined());
  r["peak_queue"] = static_cast<double>(server.queue_tracker().peak_total());
  r["sink_tuples"] = static_cast<double>(sink->data_delivered());
  r["digest_hi"] = static_cast<double>(digest >> 32);
  r["digest_lo"] = static_cast<double>(digest & 0xffffffffULL);
  const ExecStats& es = executor->stats();
  r["steps"] = static_cast<double>(es.data_steps + es.punctuation_steps +
                                   es.empty_steps);
  r["data_steps"] = static_cast<double>(es.data_steps);
  r["ets"] = static_cast<double>(executor->ets_generated());
  r["idle_returns"] = static_cast<double>(es.idle_returns);
  for (const auto& op : graph->operators()) {
    if (KindOf(op.get()) == kFilter) {
      r["filter_in"] += static_cast<double>(op->stats().data_in);
      r["filter_out"] += static_cast<double>(op->stats().data_out);
    }
  }
  if (graph->state_store() != nullptr) {
    const StorageStats& st = graph->state_store()->stats();
    r["st.loads"] = static_cast<double>(st.loads);
    r["st.evictions"] = static_cast<double>(st.evictions);
    r["st.spills"] = static_cast<double>(st.spills);
    r["st.spilled_bytes"] = static_cast<double>(st.spilled_bytes);
    r["st.index_probes"] = static_cast<double>(st.index_probes);
    r["st.index_hits"] = static_cast<double>(st.index_hits);
  }
  if (recovery != nullptr) {
    r["rec.replayed_frames"] =
        static_cast<double>(recovery->replayed_frames());
    r["rec.wal_appends"] = static_cast<double>(recovery->wal_appends());
    r["rec.checkpoints"] =
        static_cast<double>(recovery->checkpoints_written());
  }
  if (a.trace) {
    executor->Publish(&r);
    r["t.sink_cb_ns"] = static_cast<double>(sink_cb_ns);
  }
  probe.Publish(&r, a.samples);
  std::printf("RESULT %s\n", RecordToJson(r).c_str());
  std::fflush(stdout);
  if (crashed) std::_Exit(137);
  return 0;
}

}  // namespace perfbench
