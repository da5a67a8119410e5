// edge-open: open-loop Poisson arrivals into a 2-node × 1-replica Fleet
// serving the 512-1024-512-10 model, at a fixed ladder of absolute rates.
// A B=1 forward costs about a millisecond, so the plan on both tiers, the
// int8 and double GEMMs, their epilogues and the batcher under real
// queueing dominate; per-request serving cost is a few percent.  Not in
// BENCHMARK.json (its latency did not repeat on a shared VM, README.md);
// its nominal rung is the fleet probe of every traced run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "fleet/fleet.hpp"
#include "fleet/router.hpp"
#include "nn/plan.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nn = trident::nn;
namespace serving = trident::serving;
namespace fleet = trident::fleet;

constexpr int kNodes = 2;
constexpr std::size_t kPool = 256;
constexpr int kTenantsPerClass = 4;  // per class, split evenly over the nodes
constexpr int kSegments = 4;       ///< fresh fleets measured per run
constexpr int kSetupSamples = 7;   ///< fleet builds timed for setup_s

/// The rate ladder (req/s, absolute) and its nominal rung, recorded in
/// BENCHMARK.json.  Sized from the measured ExecutionPlan::run capacity of
/// this configuration (README.md gives the derivation): the nominal rung is
/// a quarter of the B=1 plan capacity, the top rung is past the batched
/// capacity.
/// The nominal rung runs for kNominalShare of the run, the others share
/// the rest equally.
constexpr double kRates[] = {800.0, 1600.0, 2400.0, 3200.0, 5600.0};
constexpr std::size_t kNominal = 0;
constexpr double kNominalShare = 0.5;
constexpr std::size_t kNominalWindows = 2;  ///< per segment, ≥ 1000 samples each
/// Unmeasured load on a fresh fleet before its ladder (caches, page faults).
constexpr double kWarmupSeconds = 0.25;

/// p99 limit, error limit, backlog and generator rules of every rung.
constexpr RungLimits kLimits{
    /*p99_limit_us=*/75'000.0,
    /*max_error_ratio=*/0.001,
    /*max_backlog_growth=*/64.0,
    // Tolerates one VM stall of a few ms; a generator that cannot keep up
    // falls behind for the whole rung.
    /*max_lag_p99_us=*/10'000.0,
    /*max_rate_error=*/0.10,
};

fleet::FleetConfig edge_config() {
  fleet::FleetConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.node.replicas = 1;
  cfg.node.max_batch = 16;  // max_wait stays at its 200 µs default
  // Deep enough that the overloaded top rung queues instead of shedding.
  cfg.node.admission.capacity = 16384;
  cfg.node.admission.policy = serving::OverloadPolicy::kReject;
  cfg.node.enable_fast_tier = true;
  cfg.gold.default_tier = serving::ServingTier::kExact;
  cfg.bronze.default_tier = serving::ServingTier::kFast;
  return cfg;
}

/// Tenant names whose consistent-hash owners alternate between the two
/// nodes, so each node carries the same gold/bronze mix.  Pure ring
/// arithmetic, identical to the fleet router's.
std::vector<std::string> balanced_tenants(const char* prefix) {
  fleet::ConsistentHashRing ring(fleet::RouterConfig{}.vnodes);
  for (int n = 0; n < kNodes; ++n) {
    ring.add_node(n);
  }
  std::vector<std::string> names;
  std::vector<int> per_node(kNodes, 0);
  for (int i = 0; static_cast<int>(names.size()) < kTenantsPerClass; ++i) {
    std::string name = std::string(prefix) + "-" + std::to_string(i);
    const int node = ring.route(fleet::ConsistentHashRing::key_of(name));
    if (per_node[static_cast<std::size_t>(node)] < kTenantsPerClass / kNodes) {
      ++per_node[static_cast<std::size_t>(node)];
      names.push_back(std::move(name));
    }
  }
  return names;
}

struct Tenant {
  std::string name;
  std::size_t tier = 0;  ///< oracle table: 0 exact (gold), 1 fast (bronze)
};

struct Pending {
  std::future<serving::Response> future;
  Clock::time_point due{};
  Clock::time_point submitted{};  ///< Fleet::submit returned
  std::uint32_t index = 0;
  std::uint32_t rung = 0;
  std::uint64_t span = 0;
};

/// What one rung measured, split by the thread that owns each part.
struct RungBooks {
  // generator
  std::size_t sent = 0;
  std::size_t shed = 0;
  std::vector<double> lag_us;
  std::vector<BacklogSample> backlog;
  double duration_s = 0.0;
  // completion thread
  std::size_t ok = 0;
  std::size_t kfailed = 0;
  std::size_t mismatched = 0;
  std::size_t retries = 0;
  std::vector<double> latency_us;  ///< due → response observed
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  std::vector<double> wake_us;
  double batch_sum = 0.0;
};

struct LadderResult {
  std::vector<RungBooks> rungs;
  std::vector<RungResult> results;
  std::vector<fleet::NodeStatus> nodes;
  fleet::FleetStats stats;
};

struct EdgeRig {
  std::unique_ptr<fleet::Fleet> fleet;
  std::vector<Tenant> tenants;
  std::vector<nn::Vector> pool;
  Oracle oracle{2};
  double plan_b1_us[2] = {0.0, 0.0};  ///< median B=1 plan forward per tier
};

/// Tenants, the seeded pool and its oracle (per tier, B=1 plan runs).
void build_reference(EdgeRig& rig, std::uint64_t seed) {
  for (const auto& n : balanced_tenants("gold")) {
    rig.tenants.push_back({n, 0});
  }
  for (const auto& n : balanced_tenants("bronze")) {
    rig.tenants.push_back({n, 1});
  }
  rig.pool = input_pool(kPool, 512, seed);
  const fleet::FleetConfig cfg = edge_config();
  const auto plan = nn::ExecutionPlan::compile(
      edge_model(), serving::Server::plan_config_for(cfg.node));
  trident::core::PhotonicBackend exact(cfg.node.backend);
  trident::core::QuantizedBackend fast(cfg.node.fast_backend);
  rig.plan_b1_us[0] = median(plan_references(*plan, exact, rig.pool, rig.oracle, 0));
  rig.plan_b1_us[1] = median(plan_references(*plan, fast, rig.pool, rig.oracle, 1));
}

/// Replaces the rig's fleet with a freshly built and warmed one, timing
/// the build into `setups`.
void rebuild_fleet(EdgeRig& rig, std::vector<double>& setups) {
  rig.fleet.reset();
  const auto t0 = Clock::now();
  const nn::Mlp model = edge_model();
  rig.fleet = std::make_unique<fleet::Fleet>(model, edge_config());
  for (const auto& t : rig.tenants) {
    rig.fleet->register_tenant({t.name, t.tier == 0 ? fleet::TenantClass::kGold
                                                    : fleet::TenantClass::kBronze});
  }
  // Warm-up: one request per tenant programs both tiers on both nodes.
  const nn::Vector warm(512, 0.25);
  for (const auto& t : rig.tenants) {
    auto f = rig.fleet->submit(t.name, warm);
    if (f) {
      (void)f->get();
    }
  }
  setups.push_back(seconds_between(t0, Clock::now()));
}

/// Seed of one ladder entry's arrival stream.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(
      trident::Rng(a).split(b).uniform_int(1, INT64_MAX));
}

/// Runs the given rungs (indices into kRates; the nominal one may repeat)
/// within `seconds` in total.
LadderResult run_ladder(EdgeRig& rig, const std::vector<std::size_t>& ladder,
                        double seconds, std::uint64_t seed, Tracer* tracer) {
  const auto nominal_entries = static_cast<double>(
      std::count(ladder.begin(), ladder.end(), kNominal));
  const auto rung_seconds = [&](std::size_t i) {
    const double n = static_cast<double>(ladder.size());
    if (nominal_entries == n) {
      return seconds / n;
    }
    return ladder[i] == kNominal
               ? seconds * kNominalShare / nominal_entries
               : seconds * (1.0 - kNominalShare) / (n - nominal_entries);
  };
  const std::size_t nt = rig.tenants.size();
  std::vector<std::deque<Pending>> queues(nt);
  std::vector<std::mutex> locks(nt);
  std::vector<RungBooks> books(ladder.size());
  std::atomic<std::uint64_t> sent_total{0};
  std::atomic<std::uint64_t> resolved_total{0};
  std::atomic<bool> generator_done{false};

  // Completion thread: per tenant, responses resolve in submission order
  // (one node, one replica, one tier per tenant), so it polls the head of
  // each tenant's queue.  It spins (yielding) rather than blocking: a timed
  // or blocking wait on an idle vCPU can wake milliseconds late, which
  // would be measured as latency.
  std::thread completion([&] {
    Tracer::Log* log = tracer != nullptr ? &tracer->thread_log() : nullptr;
    const auto head = [&](std::size_t t) -> Pending* {
      std::lock_guard lock(locks[t]);
      return queues[t].empty() ? nullptr : &queues[t].front();
    };
    const auto resolve = [&](std::size_t t, Pending& p) {
      const serving::Response r = p.future.get();
      const auto done = Clock::now();
      RungBooks& b = books[p.rung];
      const std::size_t tier = r.tier == serving::ServingTier::kFast ? 1 : 0;
      if (r.status != serving::ResponseStatus::kOk) {
        ++b.kfailed;
      } else if (!rig.oracle.matches(tier, p.index, r.output)) {
        ++b.mismatched;
      } else {
        ++b.ok;
        b.latency_us.push_back(seconds_between(p.due, done) * 1e6);
      }
      if (r.attempts > 1) {
        ++b.retries;
      }
      if (log != nullptr) {
        log->add("request", p.span, 0, p.due, done);
        b.queue_wait_us.push_back(r.timing.queue_wait_s * 1e6);
        b.service_us.push_back(r.timing.service_s * 1e6);
        b.wake_us.push_back(seconds_between(p.submitted, done) * 1e6 -
                            r.timing.sojourn_s * 1e6);
        b.batch_sum += static_cast<double>(r.batch_size);
      }
      {
        std::lock_guard lock(locks[t]);
        queues[t].pop_front();
      }
      resolved_total.fetch_add(1, std::memory_order_release);
    };
    for (;;) {
      bool progressed = false;
      bool pending = false;
      for (std::size_t t = 0; t < nt; ++t) {
        Pending* p = head(t);
        while (p != nullptr && p->future.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready) {
          resolve(t, *p);
          progressed = true;
          p = head(t);
        }
        pending = pending || p != nullptr;
      }
      if (!progressed && !pending &&
          generator_done.load(std::memory_order_acquire) &&
          resolved_total.load() == sent_total.load()) {
        break;
      }
      if (!progressed) {
        std::this_thread::yield();
      }
    }
  });

  // Generator (this thread): Poisson arrivals on an absolute timeline.
  {
    Tracer::Log* log = tracer != nullptr ? &tracer->thread_log() : nullptr;
    std::uint64_t span = 1ull << 40;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      RungBooks& b = books[i];
      const double rate = kRates[ladder[i]];
      const double rung_s = rung_seconds(i);
      trident::Rng rng(mix(seed, i));
      const auto start = Clock::now() + std::chrono::milliseconds(1);
      const auto at = [start](double t) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(t));
      };
      double t = 0.0;
      double next_sample = 0.0;
      for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= rung_s) {
          break;
        }
        const auto due = at(t);
        // Spin to the due time: sleeping wakes up to milliseconds late here.
        while (Clock::now() < due) {
          std::this_thread::yield();
        }
        const auto q = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(nt) - 1));
        const auto index = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kPool) - 1));
        const auto sent = Clock::now();
        b.lag_us.push_back(seconds_between(due, sent) * 1e6);
        auto future = rig.fleet->submit(rig.tenants[q].name, rig.pool[index]);
        const auto submitted = Clock::now();
        ++b.sent;
        span += 2;
        if (log != nullptr) {
          log->add("fleet.submit", span + 1, span, sent, submitted);
        }
        if (!future) {
          ++b.shed;
        } else {
          sent_total.fetch_add(1, std::memory_order_release);
          std::lock_guard lock(locks[q]);
          queues[q].push_back({std::move(*future), due, submitted, index,
                               static_cast<std::uint32_t>(i), span});
        }
        if (t >= next_sample) {
          b.backlog.push_back(
              {t, static_cast<double>(sent_total.load() - resolved_total.load())});
          next_sample += rung_s / 40.0;
        }
      }
      b.duration_s = rung_s;
      // Let the rung's backlog drain before the next one starts.
      const auto drain_deadline = Clock::now() + std::chrono::seconds(10);
      while (resolved_total.load(std::memory_order_acquire) != sent_total.load() &&
             Clock::now() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    generator_done.store(true, std::memory_order_release);
  }
  completion.join();

  LadderResult out;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const RungBooks& b = books[i];
    RungResult r;
    r.target_rps = kRates[ladder[i]];
    r.offered_rps = static_cast<double>(b.sent) / b.duration_s;
    r.lag_p99_us = summarize(b.lag_us).p99;
    r.sent = b.sent;
    r.ok = b.ok;
    r.errors = b.shed + b.kfailed + b.mismatched;
    r.backlog_growth = backlog_growth(b.backlog);
    r.latency = summarize(b.latency_us);
    out.results.push_back(r);
  }
  out.rungs = std::move(books);
  out.nodes = rig.fleet->node_status();
  out.stats = rig.fleet->stats();
  return out;
}

Books ladder_books(const LadderResult& l) {
  Books b;
  for (const auto& r : l.rungs) {
    b.attempted += r.sent;
    b.succeeded += r.ok;
    b.failed += r.shed + r.kfailed + r.mismatched;
    b.mismatched += r.mismatched;
  }
  return b;
}

std::string describe_rung(const RungResult& r, bool nominal) {
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o.precision(1);
  o << "rung " << r.target_rps << " req/s" << (nominal ? " (nominal)" : "")
    << ": offered " << r.offered_rps << ", lag p99 " << r.lag_p99_us
    << " us, sent " << r.sent << ", ok " << r.ok << ", errors " << r.errors
    << ", backlog growth " << r.backlog_growth << ", p50 " << r.latency.p50
    << " us, p99 " << r.latency.p99 << " us, valid "
    << (generator_valid(r, kLimits) ? "yes" : "no") << ", meets SLO "
    << (meets_slo(r, kLimits) ? "yes" : "no");
  return o.str();
}

/// Layer metrics of a traced ladder, taken at the nominal rung (`pos` in
/// the ladder) and, for the counters, over the whole ladder.
void layer_metrics(const LadderResult& l, std::size_t pos, const Tracer& tracer,
                   double plan_b1_us, Metrics& m) {
  // A workload that measured the request path itself keeps its serving.*
  // figures; the fleet probe then adds only fleet.* and loadgen.*.
  const bool serving_set = m.has("serving.submit_us.p50");
  const RungBooks& b = l.rungs[pos];
  const LatencyStats submit = summarize(tracer.durations_us("fleet.submit"));
  const LatencyStats qwait = summarize(b.queue_wait_us);
  const LatencyStats service = summarize(b.service_us);
  const LatencyStats wake = summarize(b.wake_us);
  std::size_t retries = 0;
  std::size_t shed = 0;
  std::size_t kfailed = 0;
  for (const auto& r : l.rungs) {
    retries += r.retries;
    shed += r.shed;
    kfailed += r.kfailed;
  }
  if (!serving_set) {
    m.set("serving.submit_us.p50", submit.p50, "us");
    m.set("serving.submit_us.p99", submit.p99, "us");
    m.set("serving.queue_wait_us.p50", qwait.p50, "us");
    m.set("serving.queue_wait_us.p99", qwait.p99, "us");
    m.set("serving.service_us.p50", service.p50, "us");
    m.set("serving.wake_us.p50", wake.p50, "us");
    m.set("serving.wake_us.p99", wake.p99, "us");
    m.set("serving.batch_mean",
          b.queue_wait_us.empty()
              ? 0.0
              : b.batch_sum / static_cast<double>(b.queue_wait_us.size()),
          "requests");
    m.set("serving.overhead_ratio",
          plan_b1_us > 0.0 ? l.results[pos].latency.p50 / plan_b1_us : 0.0,
          "ratio");
    m.set("serving.retries", static_cast<double>(retries), "count");
    m.set("serving.shed", static_cast<double>(shed), "count");
    m.set("serving.failed", static_cast<double>(kfailed), "count");
  }
  m.set("fleet.submit_us.p50", submit.p50, "us");
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& n : l.nodes) {
    const auto c = static_cast<double>(n.completed);
    lo = (lo == 0.0 || c < lo) ? c : lo;
    hi = std::max(hi, c);
  }
  m.set("fleet.node_skew", lo > 0.0 ? hi / lo : 0.0, "ratio");
  m.set("fleet.shed_class", static_cast<double>(l.stats.shed_class), "count");
  m.set("fleet.reroutes", static_cast<double>(l.stats.reroutes), "count");
  m.set("loadgen.lag_p99_us", l.results[pos].lag_p99_us, "us");
  m.set("loadgen.offered_rps", l.results[pos].offered_rps, "1/s");
}

/// The nominal rung in kNominalWindows windows, then the other rungs.
std::vector<std::size_t> full_ladder() {
  std::vector<std::size_t> v(kNominalWindows, kNominal);
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    if (i != kNominal) {
      v.push_back(i);
    }
  }
  return v;
}

/// One rung judged over every segment: latency and lag percentiles of the
/// pooled samples (a stall-hit window weighs by its share, not as a whole
/// tail), the median backlog growth, summed counts.
RungResult combine(const std::vector<RungResult>& segs,
                   std::vector<double> latency_us, std::vector<double> lag_us) {
  RungResult r = segs.front();
  std::vector<double> growth;
  double offered = 0.0;
  r.sent = r.ok = r.errors = 0;
  for (const auto& s : segs) {
    growth.push_back(s.backlog_growth);
    offered += s.offered_rps / static_cast<double>(segs.size());
    r.sent += s.sent;
    r.ok += s.ok;
    r.errors += s.errors;
  }
  r.offered_rps = offered;
  r.lag_p99_us = summarize(std::move(lag_us)).p99;
  r.backlog_growth = median(growth);
  r.latency = summarize(std::move(latency_us));
  return r;
}

}  // namespace

void run_edge_open(const Options& opt, RunResult& out) {
  EdgeRig rig;
  build_reference(rig, opt.seed);
  std::vector<double> setups;
  for (int i = kSegments; i < kSetupSamples; ++i) {
    rebuild_fleet(rig, setups);
  }

  // Each segment: a fresh fleet, warmed under load, the whole ladder
  // untraced, and with --trace the ladder again (half as long) traced on
  // the same fleet, so the tracing overhead is a paired figure.
  const std::vector<std::size_t> ladder = full_ladder();
  const double seg_s = opt.seconds / kSegments;
  std::vector<std::vector<RungResult>> per_rung(std::size(kRates));
  std::vector<std::vector<double>> latency_us(std::size(kRates));
  std::vector<std::vector<double>> lag_us(std::size(kRates));
  std::vector<double> energy;
  std::vector<double> overhead;
  Tracer tracer;
  std::optional<LadderResult> traced_first;
  for (int seg = 0; seg < kSegments; ++seg) {
    rebuild_fleet(rig, setups);
    const std::uint64_t seed = opt.seed * 1000 + static_cast<std::uint64_t>(seg);
    out.books.add(ladder_books(
        run_ladder(rig, {kNominal}, kWarmupSeconds, seed + 700, nullptr)));
    const LadderResult plain = run_ladder(rig, ladder, seg_s, seed, nullptr);
    out.books.add(ladder_books(plain));
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      per_rung[ladder[i]].push_back(plain.results[i]);
      const RungBooks& b = plain.rungs[i];
      latency_us[ladder[i]].insert(latency_us[ladder[i]].end(),
                                   b.latency_us.begin(), b.latency_us.end());
      lag_us[ladder[i]].insert(lag_us[ladder[i]].end(), b.lag_us.begin(),
                               b.lag_us.end());
      if (ladder[i] == kNominal) {
        out.notes.push_back("segment " + std::to_string(seg) + " " +
                            describe("nominal window (due -> response)",
                                     plain.results[i].latency));
      }
    }
    if (opt.trace) {
      LadderResult traced =
          run_ladder(rig, ladder, seg_s / 2, seed + 500, &tracer);
      out.books.add(ladder_books(traced));
      overhead.push_back((traced.results[0].latency.p50 /
                              plain.results[0].latency.p50 -
                          1.0) *
                         100.0);
      if (!traced_first) {
        traced_first = std::move(traced);
      }
    }
    rig.fleet->drain();
    const fleet::FleetStats stats = rig.fleet->stats();
    energy.push_back(stats.ledger.energy().J() * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(stats.completed, 1)));
  }

  std::vector<RungResult> rungs;
  for (std::size_t r = 0; r < per_rung.size(); ++r) {
    rungs.push_back(combine(per_rung[r], std::move(latency_us[r]),
                            std::move(lag_us[r])));
    out.notes.push_back(describe_rung(rungs.back(), r == kNominal));
  }
  const RungResult& nominal = rungs[kNominal];
  if (opt.trace) {
    layer_metrics(*traced_first, 0, tracer, rig.plan_b1_us[0], out.layers);
    out.layers.set("trace.overhead_pct", median(overhead), "%");
    write_trace(tracer, opt, "edge-open");
  }

  out.e2e.set("setup_s", median(setups), "s");
  out.e2e.set("latency_p50_us", nominal.latency.p50, "us");
  out.e2e.set("latency_p90_us", nominal.latency.p90, "us");
  out.layers.set("client.latency_p99_us", nominal.latency.p99, "us");
  // max_rps_at_slo as measured: the OK-response rate the highest rung that
  // meets the SLO sustained (0 when no rung does).
  const RungResult* best = best_rung_at_slo(rungs, kLimits);
  out.e2e.set("throughput_per_s",
              best == nullptr ? 0.0
                              : best->offered_rps * static_cast<double>(best->ok) /
                                    static_cast<double>(best->sent),
              "1/s");
  out.notes.push_back("max_rps_at_slo: " +
                      (best == nullptr ? std::string("none")
                                       : std::to_string(std::lround(best->target_rps))) +
                      " req/s rung");
  out.e2e.set("ok_ratio",
              static_cast<double>(nominal.ok) /
                  static_cast<double>(std::max<std::size_t>(nominal.sent, 1)),
              "ratio");
  out.e2e.set("sim_energy_per_op_nj", median(energy), "nJ");
  std::ostringstream cap;
  cap.precision(1);
  cap.setf(std::ios::fixed);
  cap << "plan B=1 forward: exact " << rig.plan_b1_us[0] << " us, fast "
      << rig.plan_b1_us[1] << " us";
  out.notes.push_back(cap.str());
}

void probe_edge_open(const Options& opt, RunResult& out) {
  EdgeRig rig;
  build_reference(rig, opt.seed);
  std::vector<double> setups;
  rebuild_fleet(rig, setups);
  Tracer tracer;
  const LadderResult traced = run_ladder(rig, {kNominal},
                                         std::min(opt.seconds, 1.5), opt.seed,
                                         &tracer);
  out.books.add(ladder_books(traced));
  layer_metrics(traced, 0, tracer, rig.plan_b1_us[0], out.layers);
  write_trace(tracer, opt, "probe-edge-open");
  rig.fleet->drain();
}

}  // namespace perfbench
