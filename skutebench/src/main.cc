// skutebench: one end-to-end run of one workload.
//
//   skutebench --workload cold_10k|ship_200|serve_200 --seed N
//              --seconds S --trace 0|1
//
// Every workload runs the same three phases on one store:
//   1. setup    build the fleet and load the data, kSetups times (the
//               median is setup_s; the last store is kept);
//   2. economy  epochs with no wire traffic, from a disturbance (cold
//               start, server joins, a rack failure) to the SLA and on
//               into a quiet tail: sla_s, sla_epochs, rent, transfer;
//   3. serve    closed-loop wire clients against a NetService on the
//               same store, the epoch engine advanced once per fixed
//               count of served requests: wire throughput and latency.
// Economy outputs are recorded before the first wire byte, so they do not
// depend on timing. The last stdout line is the JSON result; the exit
// code is non-zero when an output check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "skute/core/policy.h"
#include "skute/net/service.h"
#include "skute/obs/trace.h"
#include "skute/scenario/registry.h"
#include "skute/sim/simulation.h"

namespace skutebench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q >= 1.0) return values.back();
  // Nearest rank.
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

namespace {

using skute::SimConfig;
using skute::SimEvent;
using skute::Simulation;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

/// What one workload runs. See README.md for why each number is what it is.
struct Plan {
  SimConfig config;
  std::vector<SimEvent> events;
  std::optional<skute::InsertWorkloadOptions> inserts;
  int economy_epochs = 0;
  /// How many of the kSetups fleets run the economy phase (the last
  /// ones); its outputs are their mean.
  int economy_runs = 1;
  /// Economy epochs at which an SLA clock starts; each repair must end
  /// before the next disturbance. sla_s and sla_epochs are per repair.
  std::vector<int> disturbances = {0};
  /// The quiet tail: epoch_ms_p50 pools the last this-many economy epochs
  /// of every economy fleet with the serve phase's epochs.
  int tail_epochs = 0;
  /// Serving is the workload's focus: the per-layer counters come from the
  /// serve phase instead of the economy phase.
  bool serve_is_primary = false;
  /// Wire requests per second of --seconds, and per epoch while serving.
  uint64_t serve_per_second = 0;
  uint64_t requests_per_epoch = 0;
  uint64_t serve_requests = 0;  // derived
  /// write_amp: WAL bytes per inserted byte over the economy phase (true),
  /// or backend writes per accepted wire PUT over the serve phase.
  bool write_amp_from_log = false;
};

/// The racks ship_200 and serve_200 lose: the same ones for every seed,
/// so seeds vary the fleet and its traffic, not the shape of the hole.
skute::Location FailedRack(uint32_t continent = 0) {
  return skute::Location::Of(continent, 0, 0, 0, 0, 0);
}

Plan MakePlan(const Args& args) {
  Plan plan;
  if (args.workload == "cold_10k") {
    skute::scenario::RegisterBuiltinScenarios();
    auto spec =
        skute::scenario::ScenarioRegistry::Global().Find("steady_state_10k");
    if (!spec.ok()) {
      std::fprintf(stderr, "steady_state_10k scenario missing\n");
      std::exit(2);
    }
    plan.config = (*spec)->config();
    plan.config.load_chunk_objects = 0;  // everything before epoch 0
    plan.config.store.epoch.threads = 2;
    plan.economy_epochs = 60;
    plan.tail_epochs = 40;
    plan.serve_per_second = 2000;
    plan.requests_per_epoch = 500;
  } else if (args.workload == "ship_200") {
    plan.config = SimConfig::Paper();
    plan.config.backend.kind = skute::BackendKind::kDurable;
    plan.config.store.epoch.threads = 2;
    plan.config.store.durability.io_threads = 2;
    // Log shipping stays off: with it on, accepted writes are lost under
    // churn and reads go stale (README.md, "Known faults").
    skute::InsertWorkloadOptions inserts;
    inserts.inserts_per_epoch = 2000;
    inserts.real_value_bytes = 512;
    plan.inserts = inserts;
    plan.events = {SimEvent::AddServers(5, 20),
                   SimEvent::FailScope(20, FailedRack(),
                                       skute::GeoLevel::kRack)};
    plan.economy_epochs = 60;
    plan.economy_runs = kSetups;
    plan.disturbances = {20};
    plan.tail_epochs = 60;
    plan.serve_per_second = 2000;
    plan.requests_per_epoch = 500;
    plan.write_amp_from_log = true;
  } else if (args.workload == "serve_200") {
    plan.config = SimConfig::Paper();
    plan.config.store.epoch.threads = 1;
    // Three rack failures, each after the previous repair: a single
    // repair here lasts ~0.15 s, too short a window to time steadily.
    plan.disturbances.clear();
    for (uint32_t i = 0; i < 3; ++i) {
      plan.events.push_back(SimEvent::FailScope(
          20 * i, FailedRack(i), skute::GeoLevel::kRack));
      plan.disturbances.push_back(static_cast<int>(20 * i));
    }
    plan.economy_epochs = 60;
    plan.economy_runs = kSetups;
    plan.tail_epochs = 0;
    plan.serve_is_primary = true;
    plan.serve_per_second = 25000;
    plan.requests_per_epoch = 1000;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    std::exit(2);
  }
  // --seconds sizes the serve phase in whole epochs. Every workload keeps
  // two requests in flight and runs an epoch every 500-1,000 requests, so
  // 0.2-0.4% of requests wait behind an epoch and p99.9 reads that wait.
  const uint64_t seconds = static_cast<uint64_t>(std::max(args.seconds, 1));
  plan.serve_requests =
      std::max<uint64_t>(1, seconds * plan.serve_per_second /
                                plan.requests_per_epoch) *
      plan.requests_per_epoch;
  // Real values are tracked so wire PUTs round-trip bytes; the economy
  // phase writes none on cold_10k and serve_200, so their backends idle.
  plan.config.store.track_real_data = true;
  return plan;
}

// --- Per-phase counters ---------------------------------------------------

/// Snapshot of the store's cumulative counters; phases report deltas.
struct Counters {
  std::vector<double> stage_ms;  // parallel to stage_timings()
  skute::DecisionPlaneStats decision;
  skute::IoStats io;
  skute::NetStats net;
  skute::CommStats comm;

  static Counters Of(skute::SkuteStore& store) {
    Counters c;
    for (const skute::StageTiming& t : store.epoch_pipeline().stage_timings()) {
      c.stage_ms.push_back(t.total_ms);
    }
    if (const auto* econ = dynamic_cast<const skute::EconomicPolicy*>(
            &store.placement_policy())) {
      c.decision = econ->decision_stats();
    }
    c.io = store.io_stats();
    c.net = store.net_lifetime();
    c.comm = store.comm_total();
    return c;
  }
};

/// Epoch-by-epoch tallies of one phase.
struct PhaseStats {
  std::vector<double> step_ms;
  double overhead_ms = 0.0;  // Step time outside the pipeline stages
  skute::ExecutorStats exec;
  uint64_t routed = 0;
  uint64_t dropped = 0;
  Counters begin, end;

  double StageMs(skute::SkuteStore& store, const char* name) const {
    const auto& timings = store.epoch_pipeline().stage_timings();
    for (size_t i = 0; i < timings.size() && i < end.stage_ms.size(); ++i) {
      if (std::strcmp(timings[i].name, name) == 0) {
        const double before = i < begin.stage_ms.size() ? begin.stage_ms[i] : 0;
        return end.stage_ms[i] - before;
      }
    }
    return 0.0;
  }
};

/// Runs one timed Step and folds its counters into `phase`.
double TimedStep(Simulation& sim, PhaseStats* phase) {
  skute::SkuteStore& store = sim.store();
  const auto& timings = store.epoch_pipeline().stage_timings();
  double stages_before = 0.0;
  for (const skute::StageTiming& t : timings) {
    if (std::strcmp(t.name, "bench.replica_oracle") != 0) {
      stages_before += t.total_ms;
    }
  }
  const double t0 = NowSeconds();
  {
    skute::obs::TraceSpan span("sim", "sim.step");
    sim.Step();
  }
  const double ms = (NowSeconds() - t0) * 1e3;
  double stages_after = 0.0;
  for (const skute::StageTiming& t : timings) {
    if (std::strcmp(t.name, "bench.replica_oracle") != 0) {
      stages_after += t.total_ms;
    }
  }
  phase->step_ms.push_back(ms);
  phase->overhead_ms += ms - (stages_after - stages_before);
  phase->exec.Accumulate(store.last_epoch_stats());
  phase->routed += store.last_route().routed;
  phase->dropped += sim.metrics().last().queries_dropped;
  return ms;
}

/// Replica consistency and byte conservation after an armed epoch: every
/// live replica equals its primary, the primaries hold exactly the keys
/// the workload got accepted, and the catalog's logical bytes are the
/// bulk-loaded bytes plus what the primaries hold.
void CheckStorage(Simulation& sim, const ReplicaOracle& oracle,
                  uint64_t loaded_bytes, uint64_t wire_keys,
                  const std::string& when, Outcome* out) {
  const ReplicaOracle::Result& r = oracle.result();
  out->Check(r.ran, when + ": the replica oracle did not run");
  out->Check(r.mismatches == 0,
             when + ": " + std::to_string(r.mismatches) + " of " +
                 std::to_string(r.replicas_compared) +
                 " replicas differ from their primary; first: " +
                 r.first_mismatch);
  uint64_t inserts = 0;
  for (const skute::EpochSnapshot& s : sim.metrics().series()) {
    inserts += s.insert_attempted - s.insert_failed;
  }
  out->Check(r.primary_keys == inserts + wire_keys,
             when + ": primaries hold " + std::to_string(r.primary_keys) +
                 " keys; accepted inserts " + std::to_string(inserts) +
                 " + distinct wire keys " + std::to_string(wire_keys));
  const uint64_t logical = CatalogLogicalBytes(sim.store());
  out->Check(logical == loaded_bytes + r.primary_bytes,
             when + ": catalog holds " + std::to_string(logical) +
                 " logical bytes; loaded " + std::to_string(loaded_bytes) +
                 " + bytes held by primaries " +
                 std::to_string(r.primary_bytes));
}

/// What one fleet's economy phase produced.
struct Economy {
  std::vector<int> sla_epochs;  // per disturbance; -1: never met
  std::vector<double> sla_s;
  double rent = 0.0;
  double transfer_bytes = 0.0;
  double log_bytes = 0.0;
  double user_bytes = 0.0;
  std::vector<double> tail_ms;  // the last plan.tail_epochs epoch times
};

/// Economy phase: epochs with no wire traffic from each of the plan's
/// disturbances to its SLA, and on. Checks placement at the SLA epoch and at the end,
/// and replica contents after the last epoch.
Economy RunEconomy(Simulation& sim, ReplicaOracle& oracle, const Plan& plan,
                   uint64_t loaded_bytes, PhaseStats* phase, Outcome* out) {
  skute::SkuteStore& store = sim.store();
  Economy result;
  phase->begin = Counters::Of(store);
  for (int e = 0; e < plan.economy_epochs; ++e) {
    if (e + 1 == plan.economy_epochs) oracle.Arm();
    const double ms = TimedStep(sim, phase);
    const skute::EpochSnapshot& snap = sim.metrics().last();
    size_t below = 0, lost = 0;
    for (size_t r = 0; r < snap.ring_below_threshold.size(); ++r) {
      below += snap.ring_below_threshold[r];
      lost += snap.ring_lost[r];
    }
    out->attempted += 1 + snap.insert_attempted;
    out->failed += (lost > 0 ? 1 : 0) + snap.insert_failed;
    // The repair clock of the latest disturbance at or before epoch e.
    size_t d = result.sla_epochs.size();
    if (d < plan.disturbances.size() && e == plan.disturbances[d]) {
      result.sla_epochs.push_back(-1);
      result.sla_s.push_back(0.0);
    }
    if (!result.sla_epochs.empty() && result.sla_epochs.back() < 0) {
      d = result.sla_epochs.size() - 1;
      result.sla_s[d] += ms / 1e3;
      if (below == 0) {
        result.sla_epochs[d] = e - plan.disturbances[d] + 1;
        // The program says every partition meets its SLA: recompute.
        CheckPlacement(store, true, "at the SLA epoch " + std::to_string(e),
                       out);
      }
    }
  }
  phase->end = Counters::Of(store);
  CheckStorage(sim, oracle, loaded_bytes, 0, "end of economy phase", out);
  bool repaired = result.sla_epochs.size() == plan.disturbances.size();
  for (const int epochs : result.sla_epochs) repaired &= epochs >= 0;
  out->Check(repaired, "an SLA repair did not end before the next "
                       "disturbance or the end of the economy phase");
  CheckPlacement(store, true, "end of economy phase", out);
  for (const skute::RingId ring : sim.rings()) {
    result.rent += store.ReportRing(ring).rent_paid_this_epoch;
  }
  result.transfer_bytes = static_cast<double>(
      phase->end.comm.transfer_bytes - phase->begin.comm.transfer_bytes);
  result.log_bytes = static_cast<double>(
      phase->end.io.log_bytes_written - phase->begin.io.log_bytes_written);
  result.user_bytes =
      static_cast<double>(CatalogLogicalBytes(store) - loaded_bytes);
  const size_t tail = std::min<size_t>(plan.tail_epochs, plan.economy_epochs);
  result.tail_ms.assign(phase->step_ms.end() - tail, phase->step_ms.end());
  return result;
}

struct Json {
  std::string text;
  void Add(const Metric& m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  text.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    text += buf;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int Run(const Args& args) {
  Plan plan = MakePlan(args);
  Outcome out;
  std::vector<Metric> e2e, layer;
  const auto add = [](std::vector<Metric>* v, const char* name, double value,
                      const char* unit) { v->push_back({name, value, unit}); };

  // --- 1 and 2. setup, and the economy phase, once per fleet ----------------
  uint64_t loaded_bytes = 0;
  for (const skute::AppSpec& app : plan.config.apps) {
    if (plan.config.object_bytes == 0) continue;
    loaded_bytes += app.initial_bytes / plan.config.object_bytes *
                    plan.config.object_bytes;
  }
  std::unique_ptr<Simulation> sim;
  ReplicaOracle* oracle = nullptr;
  std::vector<double> setup_s;
  std::vector<Economy> economies;
  PhaseStats econ;  // the last fleet's economy phase
  double run_t0 = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    // The last fleet, which goes on to serve, runs on the run's own seed.
    SimConfig config = plan.config;
    config.seed = args.seed + static_cast<uint64_t>(kSetups - 1 - i) * 7919;
    sim.reset();
    const double t0 = NowSeconds();
    sim = std::make_unique<Simulation>(config);
    const skute::Status st = sim->Initialize();
    setup_s.push_back(NowSeconds() - t0);
    std::fprintf(stderr, "setup %d: %.3f s\n", i, setup_s.back());
    if (!st.ok()) {
      std::fprintf(stderr, "Initialize failed: %s\n", st.ToString().c_str());
      return 2;
    }
    out.Check(CatalogLogicalBytes(sim->store()) == loaded_bytes,
              "after setup: catalog holds " +
                  std::to_string(CatalogLogicalBytes(sim->store())) +
                  " logical bytes, loaded " + std::to_string(loaded_bytes));
    if (i < kSetups - plan.economy_runs) continue;
    auto oracle_owner = std::make_unique<ReplicaOracle>();
    oracle = oracle_owner.get();
    sim->store().epoch_pipeline().AddStage(std::move(oracle_owner));
    for (const SimEvent& e : plan.events) sim->ScheduleEvent(e);
    if (plan.inserts) sim->EnableInserts(*plan.inserts);
    PhaseStats scratch;
    const bool last = i + 1 == kSetups;
    if (last && args.trace) skute::obs::Tracer::Global().Start();
    if (last) run_t0 = NowSeconds();
    economies.push_back(RunEconomy(*sim, *oracle, plan, loaded_bytes,
                                   last ? &econ : &scratch, &out));
  }
  skute::SkuteStore& store = sim->store();

  // --- 3. serve -------------------------------------------------------------
  PhaseStats serve;
  serve.begin = Counters::Of(store);
  skute::net::NetService service(&store, skute::net::NetService::Options{});
  if (const skute::Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "NetService::Start failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  WireOptions wopt;
  wopt.port = service.port();
  wopt.ops_per_client = plan.serve_requests / kWireClients;
  wopt.seed = args.seed;
  wopt.rings = sim->rings().size();
  const uint64_t total_requests = wopt.ops_per_client * kWireClients;
  const uint64_t serve_epochs =
      std::max<uint64_t>(1, total_requests / plan.requests_per_epoch);
  WireLoad load(wopt);
  const uint64_t ops_base = store.net_lifetime().ops;
  uint64_t epochs_done = 0;
  uint64_t windows = 0, busy_windows = 0;
  double window_ms = 0.0;
  load.Start();
  while (!load.Done()) {
    const uint64_t before = store.net_lifetime().ops;
    const double w0 = args.trace ? NowSeconds() : 0.0;
    service.ServeWindow();
    const uint64_t served = store.net_lifetime().ops;
    ++windows;
    if (served != before) {
      ++busy_windows;
      if (args.trace) window_ms += (NowSeconds() - w0) * 1e3;
    }
    if (epochs_done + 1 < serve_epochs &&
        served - ops_base >= (epochs_done + 1) * plan.requests_per_epoch) {
      TimedStep(*sim, &serve);
      ++epochs_done;
    }
  }
  load.Join();
  // The final epoch runs after every reply: its durability stage is the
  // last one, and the oracle compares replicas right after it.
  oracle->Arm();
  while (epochs_done < serve_epochs) {
    TimedStep(*sim, &serve);
    ++epochs_done;
  }
  service.Shutdown();
  serve.end = Counters::Of(store);
  const double run_wall = NowSeconds() - run_t0;
  if (args.trace) skute::obs::Tracer::Global().Stop();

  // Serve-phase epochs are operations too.
  for (size_t i = sim->metrics().series().size() - serve_epochs;
       i < sim->metrics().series().size(); ++i) {
    const skute::EpochSnapshot& snap = sim->metrics().series()[i];
    size_t lost = 0;
    for (size_t l : snap.ring_lost) lost += l;
    out.attempted += 1 + snap.insert_attempted;
    out.failed += (lost > 0 ? 1 : 0) + snap.insert_failed;
  }

  std::vector<double> get_us, put_us;
  uint64_t puts_stored = 0, keys_written = 0;
  double first_send = 1e300, last_reply = 0.0;
  for (const WireClientResult& r : load.results()) {
    get_us.insert(get_us.end(), r.get_us.begin(), r.get_us.end());
    put_us.insert(put_us.end(), r.put_us.begin(), r.put_us.end());
    puts_stored += r.stored;
    keys_written += r.last_written.size();
    first_send = std::min(first_send, r.first_send);
    last_reply = std::max(last_reply, r.last_reply);
    out.attempted += r.ops + r.not_attempted;
    out.failed += r.error_replies + r.transport_errors + r.ryw_violations +
                  r.not_attempted;
    out.Check(r.ryw_violations == 0,
              std::to_string(r.ryw_violations) +
                  " reads broke read-your-writes: " + r.first_failure);
  }

  // --- final checks ---------------------------------------------------------
  CheckPlacement(store, true, "end of run", &out);
  CheckStorage(*sim, *oracle, loaded_bytes, keys_written, "end of run", &out);
  out.Check(store.lost_partitions() == 0,
            std::to_string(store.lost_partitions()) + " partitions lost");

  // --- end-to-end metrics ---------------------------------------------------
  // epoch_ms_p50 pools the steady epochs: every economy fleet's quiet
  // tail (none on serve_200) and the serve phase's epochs.
  std::vector<double> epoch_sample = serve.step_ms;
  for (const Economy& e : economies) {
    epoch_sample.insert(epoch_sample.end(), e.tail_ms.begin(),
                        e.tail_ms.end());
  }
  // Economy outputs: the mean over the fleets that ran the economy phase,
  // and for the SLA over every repair.
  double sla_s = 0.0, sla_epochs = 0.0, rent = 0.0, transfer_bytes = 0.0;
  double log_bytes = 0.0, user_bytes = 0.0;
  std::vector<double> repair_s, repair_epochs;
  for (const Economy& e : economies) {
    repair_s.insert(repair_s.end(), e.sla_s.begin(), e.sla_s.end());
    for (const int n : e.sla_epochs) repair_epochs.push_back(std::max(n, 0));
    rent += e.rent / economies.size();
    transfer_bytes += e.transfer_bytes / economies.size();
    log_bytes += e.log_bytes;
    user_bytes += e.user_bytes;
  }
  for (size_t i = 0; i < repair_s.size(); ++i) {
    sla_s += repair_s[i] / repair_s.size();
    sla_epochs += repair_epochs[i] / repair_epochs.size();
  }
  const double record_bytes = KeyMix::kKeyBytes + KeyMix::kValueBytes;
  const double write_amp =
      plan.write_amp_from_log
          ? Ratio(log_bytes, user_bytes)
          : Ratio(static_cast<double>(serve.end.io.puts - serve.begin.io.puts) *
                      record_bytes,
                  static_cast<double>(puts_stored) * record_bytes);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  add(&e2e, "setup_s", Median(setup_s), "s");
  add(&e2e, "sla_s", sla_s, "s");
  add(&e2e, "sla_epochs", sla_epochs, "epochs");
  add(&e2e, "epoch_ms_p50", Median(epoch_sample), "ms");
  add(&e2e, "rent_per_epoch", rent, "vUSD/epoch");
  add(&e2e, "transfer_gb", transfer_bytes / 1e9, "GB");
  add(&e2e, "write_amp", write_amp, "B/B");
  add(&e2e, "wire_ops_per_s",
      Ratio(static_cast<double>(total_requests), last_reply - first_send),
      "ops/s");
  add(&e2e, "get_ms_p50", Quantile(get_us, 0.5) / 1e3, "ms");
  add(&e2e, "get_ms_p999", Quantile(get_us, 0.999) / 1e3, "ms");
  add(&e2e, "put_ms_p50", Quantile(put_us, 0.5) / 1e3, "ms");
  add(&e2e, "put_ms_p999", Quantile(put_us, 0.999) / 1e3, "ms");
  add(&e2e, "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
      "MB");

  // --- per-layer metrics (traced run) ---------------------------------------
  if (args.trace) {
    const PhaseStats& primary = plan.serve_is_primary ? serve : econ;
    const double epochs = static_cast<double>(primary.step_ms.size());
    const TraceReport trace = AnalyzeTrace();

    // In-process core path on the wire clients' key mix, after the checks.
    std::vector<double> core_get_us, core_put_us;
    {
      KeyMix mix(args.seed, 0);
      PhaseStats probe;
      for (uint64_t n = 0; n < 20000; ++n) {
        const KeyMix::Op op = mix.Next();
        const std::string key = mix.Key(op.key_index);
        const skute::RingId ring = op.key_index % wopt.rings;
        const double t0 = NowSeconds();
        if (op.put) {
          (void)store.Put(ring, key, mix.Value(n));
        } else {
          (void)store.ServeGet(ring, key);
        }
        (op.put ? core_put_us : core_get_us)
            .push_back((NowSeconds() - t0) * 1e6);
        if ((n + 1) % plan.requests_per_epoch == 0) TimedStep(*sim, &probe);
      }
    }

    double stage_ms = 0.0;
    // The io category is left out: it is idle outside ship_200, where
    // engine.durability_ms already carries the pool's drain.
    for (const char* cat : {"sim", "stage", "shard", "exec", "net", "wire"}) {
      const auto self = trace.self_ms.find(cat);
      add(&layer, (std::string("self.") + cat + "_ms").c_str(),
          self == trace.self_ms.end() ? 0.0 : self->second, "ms");
    }
    for (const char* s : {"record_balances", "propose_actions", "execute",
                          "route_queries", "publish_prices", "durability",
                          "accounting"}) {
      stage_ms += trace.Total(s);
    }
    const double shard_ms = trace.CategoryTotal("shard");
    const double span_cost_ns = MeasureSpanCostNs();

    const auto count = [&](const char* name, uint64_t value, const char* unit) {
      add(&layer, name, static_cast<double>(value), unit);
    };
    add(&layer, "sim.step_overhead_ms", Ratio(primary.overhead_ms, epochs),
        "ms");
    for (const char* stage : {"publish_prices", "route_queries",
                              "record_balances", "propose_actions", "execute",
                              "durability"}) {
      add(&layer, (std::string("engine.") + stage + "_ms").c_str(),
          Ratio(primary.StageMs(store, stage), epochs), "ms");
    }
    add(&layer, "engine.shard_busy_ratio",
        Ratio(shard_ms, stage_ms * plan.config.store.epoch.threads), "ratio");
    const skute::DecisionPlaneStats& d0 = primary.begin.decision;
    const skute::DecisionPlaneStats& d1 = primary.end.decision;
    const uint64_t selects = d1.select_calls - d0.select_calls;
    const uint64_t scored = d1.candidates_scored - d0.candidates_scored;
    const uint64_t hits = d1.avail_cache_hits - d0.avail_cache_hits;
    const uint64_t misses = d1.avail_cache_misses - d0.avail_cache_misses;
    count("decision.select_calls", selects, "count");
    count("decision.candidates_scored", scored, "count");
    add(&layer, "decision.scored_per_select",
        Ratio(static_cast<double>(scored), static_cast<double>(selects)),
        "ratio");
    count("decision.full_scan_selects",
          d1.full_scan_selects - d0.full_scan_selects, "count");
    count("decision.dirty_partitions",
          d1.partitions_dirty - d0.partitions_dirty, "count");
    count("decision.clean_partitions",
          d1.partitions_clean - d0.partitions_clean, "count");
    add(&layer, "decision.avail_cache_hit_ratio",
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");
    const skute::ExecutorStats& x = primary.exec;
    count("exec.replications", x.replications, "count");
    count("exec.migrations", x.migrations, "count");
    count("exec.suicides", x.suicides, "count");
    count("exec.blocked_bandwidth", x.blocked_bandwidth, "count");
    count("exec.blocked_storage", x.blocked_storage, "count");
    add(&layer, "exec.applied_ratio",
        Ratio(static_cast<double>(x.applied()),
              static_cast<double>(x.applied() + x.blocked_bandwidth +
                                  x.blocked_storage + x.aborted_stale)),
        "ratio");
    count("route.queries_routed", primary.routed, "count");
    count("route.queries_dropped", primary.dropped, "count");
    add(&layer, "core.serve_get_us", Median(core_get_us), "us");
    add(&layer, "core.put_us", Median(core_put_us), "us");
    const skute::NetStats& n0 = serve.begin.net;
    const skute::NetStats& n1 = serve.end.net;
    add(&layer, "net.serve_window_ms",
        Ratio(window_ms, static_cast<double>(busy_windows)), "ms");
    add(&layer, "net.ops_per_window",
        Ratio(static_cast<double>(n1.ops - n0.ops),
              static_cast<double>(busy_windows)),
        "ops");
    count("net.idle_windows", windows - busy_windows, "count");
    count("net.bytes_in", n1.bytes_in - n0.bytes_in, "B");
    count("net.bytes_out", n1.bytes_out - n0.bytes_out, "B");
    add(&layer, "net.epoch_stall_ms", Median(serve.step_ms), "ms");
    const skute::IoStats& i0 = econ.begin.io;
    const skute::IoStats& i1 = econ.end.io;
    count("backend.log_bytes", i1.log_bytes_written - i0.log_bytes_written,
          "B");
    count("backend.puts", i1.puts - i0.puts, "count");
    count("backend.fsyncs", i1.fsyncs - i0.fsyncs, "count");
    count("io.group_commits", i1.group_commits - i0.group_commits, "count");
    count("io.coalesced_fsyncs", i1.coalesced_fsyncs - i0.coalesced_fsyncs,
          "count");
    count("storage.delta_bytes", i1.delta_bytes_out - i0.delta_bytes_out, "B");
    count("storage.snapshot_bytes",
          i1.snapshot_bytes_out - i0.snapshot_bytes_out, "B");
    count("trace.spans", trace.spans, "count");
    add(&layer, "trace.span_cost_ns", span_cost_ns, "ns");
    add(&layer, "trace.overhead_pct",
        Ratio(static_cast<double>(trace.spans) * span_cost_ns / 1e9, run_wall) *
            100.0,
        "%");
    add(&layer, "trace.epoch_ms_p50", Median(epoch_sample), "ms");
  }

  std::fprintf(stderr,
               "economy: sla_epochs %.17g transfer_gb %.17g rent %.17g "
               "write_amp %.17g\n",
               sla_epochs, transfer_bytes / 1e9, rent, write_amp);
  for (const std::string& f : out.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  Json json;
  for (const Metric& m : args.trace ? layer : e2e) json.Add(m);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.text.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace skutebench

int main(int argc, char** argv) {
  skutebench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty()) {
    std::fprintf(stderr,
                 "usage: skutebench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  return skutebench::Run(args);
}
