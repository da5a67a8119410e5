// tiny-closed: two closed-loop clients against one Server replica running
// the 16-32-10 model on the exact tier.  The forward is ~5% of a round
// trip, so admission, queueing, the batch cut, promise fulfilment and
// caller wake-up dominate.  max_wait is 0: any batch window makes a lone
// client sit out the window plus the timed-wait overshoot, which hides
// the request path (see README.md).
#include <atomic>
#include <memory>
#include <thread>

#include "core/photonic_backend.hpp"
#include "nn/plan.hpp"
#include "serving/server.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nn = trident::nn;
namespace serving = trident::serving;

constexpr int kClients = 2;
constexpr std::size_t kPool = 1024;
constexpr int kWarmupRequests = 64;
constexpr int kSegments = 5;       ///< fresh servers measured per run
constexpr int kSetupSamples = 15;  ///< server builds timed for setup_s

serving::ServerConfig tiny_config() {
  serving::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 16;
  cfg.max_wait = std::chrono::microseconds{0};
  cfg.admission.policy = serving::OverloadPolicy::kBlock;
  return cfg;  // noise-free exact tier: readout_noise 0, no fast tier
}

/// What one closed-loop phase measured.
struct ClosedPhase {
  Books books;
  double elapsed_s = 0.0;
  std::vector<double> latency_us;  ///< send → response, kOk and exact
  // Per-request breakdown, traced phases only.
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  std::vector<double> wake_us;
  double batch_sum = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  std::uint64_t kfailed = 0;
};

/// splitmix64 step: the clients' seeded choice of pool inputs.
std::uint64_t next_index(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void merge(ClosedPhase& into, ClosedPhase&& from) {
  into.books.add(from.books);
  const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.latency_us, from.latency_us);
  append(into.queue_wait_us, from.queue_wait_us);
  append(into.service_us, from.service_us);
  append(into.wake_us, from.wake_us);
  into.batch_sum += from.batch_sum;
  into.retries += from.retries;
  into.shed += from.shed;
  into.kfailed += from.kfailed;
}

ClosedPhase closed_loop(serving::Server& server,
                        const std::vector<nn::Vector>& pool,
                        const Oracle& oracle, double seconds,
                        std::uint64_t seed, Tracer* tracer) {
  std::vector<ClosedPhase> per(kClients);
  std::atomic<bool> go{false};
  const auto deadline_from = [seconds](Clock::time_point t) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  };
  Clock::time_point start{};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClosedPhase& me = per[static_cast<std::size_t>(c)];
      me.latency_us.reserve(static_cast<std::size_t>(seconds * 80'000));
      Tracer::Log* log = tracer != nullptr ? &tracer->thread_log() : nullptr;
      std::uint64_t state = seed * 0x100 + static_cast<std::uint64_t>(c);
      std::uint64_t span_id = (static_cast<std::uint64_t>(c) + 1) << 40;
      while (!go.load(std::memory_order_acquire)) {
      }
      const Clock::time_point deadline = deadline_from(start);
      while (Clock::now() < deadline) {
        const std::size_t idx = next_index(state) % pool.size();
        nn::Vector input = pool[idx];
        ++me.books.attempted;
        const auto t0 = Clock::now();
        auto future = server.submit(std::move(input));
        const auto t1 = Clock::now();
        if (!future) {
          ++me.books.failed;
          ++me.shed;
          continue;
        }
        const serving::Response r = future->get();
        const auto t2 = Clock::now();
        if (r.status != serving::ResponseStatus::kOk) {
          ++me.books.failed;
          ++me.kfailed;
        } else if (!oracle.matches(0, idx, r.output)) {
          ++me.books.failed;
          ++me.books.mismatched;
        } else {
          ++me.books.succeeded;
          me.latency_us.push_back(seconds_between(t0, t2) * 1e6);
        }
        if (r.attempts > 1) {
          ++me.retries;
        }
        if (log != nullptr) {
          span_id += 3;
          log->add("request", span_id, 0, t0, t2);
          log->add("serving.submit", span_id + 1, span_id, t0, t1);
          log->add("client.wait", span_id + 2, span_id, t1, t2);
          const double submit_us = seconds_between(t0, t1) * 1e6;
          const double round_us = seconds_between(t0, t2) * 1e6;
          me.queue_wait_us.push_back(r.timing.queue_wait_s * 1e6);
          me.service_us.push_back(r.timing.service_s * 1e6);
          me.wake_us.push_back(round_us - r.timing.sojourn_s * 1e6 - submit_us);
          me.batch_sum += static_cast<double>(r.batch_size);
        }
      }
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : clients) {
    t.join();
  }
  ClosedPhase all;
  all.elapsed_s = seconds_between(start, Clock::now());
  for (auto& p : per) {
    merge(all, std::move(p));
  }
  return all;
}

/// One freshly built server.  A run measures several, each on new threads,
/// so the figures are medians over thread placements, not one draw.
std::unique_ptr<serving::Server> build_server(std::vector<double>& setups) {
  const auto t0 = Clock::now();
  const nn::Mlp model = tiny_model();
  auto server = std::make_unique<serving::Server>(model, tiny_config());
  const nn::Vector warm(16, 0.25);
  for (int k = 0; k < kWarmupRequests; ++k) {
    auto f = server->submit(warm);
    if (f) {
      (void)f->get();
    }
  }
  setups.push_back(seconds_between(t0, Clock::now()));
  return server;
}

struct Reference {
  std::vector<nn::Vector> pool;
  Oracle oracle{1};
  double plan_b1_us = 0.0;  ///< median B=1 plan forward while building refs
};

Reference build_reference(std::uint64_t seed) {
  Reference ref;
  ref.pool = input_pool(kPool, 16, seed);
  trident::core::PhotonicBackend backend(tiny_config().backend);
  const auto plan = nn::ExecutionPlan::compile(
      tiny_model(), serving::Server::plan_config_for(tiny_config()));
  ref.plan_b1_us =
      median(plan_references(*plan, backend, ref.pool, ref.oracle, 0));
  return ref;
}

/// Per-layer metrics of one traced phase.
void layer_metrics(const ClosedPhase& p, const Tracer& tracer,
                   double plan_b1_us, Metrics& m) {
  const LatencyStats submit = summarize(tracer.durations_us("serving.submit"));
  const LatencyStats qwait = summarize(p.queue_wait_us);
  const LatencyStats service = summarize(p.service_us);
  const LatencyStats wake = summarize(p.wake_us);
  const LatencyStats round = summarize(p.latency_us);
  m.set("serving.submit_us.p50", submit.p50, "us");
  m.set("serving.submit_us.p99", submit.p99, "us");
  m.set("serving.queue_wait_us.p50", qwait.p50, "us");
  m.set("serving.queue_wait_us.p99", qwait.p99, "us");
  m.set("serving.service_us.p50", service.p50, "us");
  m.set("serving.wake_us.p50", wake.p50, "us");
  m.set("serving.wake_us.p99", wake.p99, "us");
  m.set("serving.batch_mean",
        p.queue_wait_us.empty()
            ? 0.0
            : p.batch_sum / static_cast<double>(p.queue_wait_us.size()),
        "requests");
  m.set("serving.overhead_ratio", plan_b1_us > 0.0 ? round.p50 / plan_b1_us : 0.0,
        "ratio");
  m.set("serving.retries", static_cast<double>(p.retries), "count");
  m.set("serving.shed", static_cast<double>(p.shed), "count");
  m.set("serving.failed", static_cast<double>(p.kfailed), "count");
}

}  // namespace

void run_tiny_closed(const Options& opt, RunResult& out) {
  const Reference ref = build_reference(opt.seed);
  std::vector<double> setups;
  for (int i = kSegments; i < kSetupSamples; ++i) {
    (void)build_server(setups);
  }

  // Each segment: a fresh server, an untraced closed loop, and with --trace
  // a traced one (half as long) on the same server, so the tracing
  // overhead is a paired figure.
  const double seg_s = opt.seconds / kSegments;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  std::vector<double> rate;
  std::vector<double> energy;
  std::vector<double> overhead;
  Books plain_books;
  Tracer tracer(50'000);
  ClosedPhase traced_all;
  for (int seg = 0; seg < kSegments; ++seg) {
    const auto server = build_server(setups);
    const std::uint64_t seed = opt.seed * 1000 + static_cast<std::uint64_t>(seg);
    const ClosedPhase plain =
        closed_loop(*server, ref.pool, ref.oracle, seg_s, seed, nullptr);
    plain_books.add(plain.books);
    const LatencyStats lat = summarize(plain.latency_us);
    p50.push_back(lat.p50);
    p90.push_back(lat.p90);
    p99.push_back(lat.p99);
    rate.push_back(static_cast<double>(plain.books.succeeded) / plain.elapsed_s);
    out.notes.push_back("segment " + std::to_string(seg) + " " +
                        describe("round trip (send -> response)", lat));
    if (opt.trace) {
      ClosedPhase traced =
          closed_loop(*server, ref.pool, ref.oracle, seg_s / 2, seed + 500, &tracer);
      out.books.add(traced.books);
      overhead.push_back((summarize(traced.latency_us).p50 / lat.p50 - 1.0) * 100.0);
      merge(traced_all, std::move(traced));
    }
    const serving::ServerStats stats = server->retire();
    energy.push_back(stats.ledger.energy().J() * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(stats.completed, 1)));
  }
  out.books.add(plain_books);
  if (opt.trace) {
    layer_metrics(traced_all, tracer, ref.plan_b1_us, out.layers);
    out.layers.set("trace.overhead_pct", median(overhead), "%");
    write_trace(tracer, opt, "tiny-closed");
  }

  out.e2e.set("setup_s", median(setups), "s");
  out.e2e.set("latency_p50_us", median(p50), "us");
  out.e2e.set("latency_p90_us", median(p90), "us");
  out.layers.set("client.latency_p99_us", median(p99), "us");
  out.e2e.set("throughput_per_s", median(rate), "1/s");
  out.e2e.set("ok_ratio",
              static_cast<double>(plain_books.succeeded) /
                  static_cast<double>(std::max<std::uint64_t>(
                      plain_books.attempted, 1)),
              "ratio");
  out.e2e.set("sim_energy_per_op_nj", median(energy), "nJ");
}

void probe_tiny_closed(const Options& opt, RunResult& out) {
  const Reference ref = build_reference(opt.seed);
  std::vector<double> setups;
  const auto server = build_server(setups);
  Tracer tracer;
  const ClosedPhase traced = closed_loop(*server, ref.pool, ref.oracle,
                                         std::min(opt.seconds, 1.5), opt.seed,
                                         &tracer);
  out.books.add(traced.books);
  layer_metrics(traced, tracer, ref.plan_b1_us, out.layers);
  write_trace(tracer, opt, "probe-tiny-closed");
}

}  // namespace perfbench
