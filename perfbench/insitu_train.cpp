// insitu-train: per-sample in-situ SGD (batch_size 1, the hardware's
// semantics) through core::TrainingSession on an 8-bit PhotonicBackend
// with readout noise and stochastic rounding, single thread, no serving.
// matvec_transposed, rank1_update and GST reprogramming run on every
// sample; accuracy, loss and the ledger repeat exactly for a seed.
#include <bit>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "core/insitu_trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nn = trident::nn;
namespace core = trident::core;

namespace {

constexpr int kSetupRepeats = 101;

/// Epochs per second of --seconds, measured on the reference host: the
/// schedule is a fixed function of --seconds (so accuracy and the ledger
/// repeat for a seed) while a run still lasts about --seconds.
constexpr double kEpochsPerSecond = 1.6;

}  // namespace

core::SessionConfig insitu_config(std::uint64_t seed, int epochs) {
  core::SessionConfig cfg;
  cfg.layer_sizes = {kInsituFeatures + 1, kInsituHidden, kInsituClasses};
  cfg.activation = nn::Activation::kGstPhotonic;
  cfg.schedule.epochs = epochs;
  cfg.schedule.learning_rate = 0.02;
  cfg.schedule.batch_size = 1;
  cfg.schedule.shuffle_seed = seed;
  cfg.hardware.weight_bits = 8;
  cfg.hardware.input_bits = 8;
  cfg.hardware.readout_noise = 0.02;
  cfg.hardware.stochastic_rounding = true;
  cfg.hardware.seed = seed ^ 0x1A5Eull;
  cfg.init_seed = seed;
  cfg.test_fraction = 0.25;
  return cfg;
}

nn::Dataset insitu_dataset(std::uint64_t seed, int samples) {
  trident::Rng rng(seed * 0x9E37ull + 1);
  nn::Dataset d = nn::pattern_classes(samples, kInsituClasses, kInsituFeatures,
                                      kInsituFlip, rng);
  d.augment_bias();
  return d;
}

void run_insitu_train(const Options& opt, RunResult& out) {
  const int epochs =
      std::max(1, static_cast<int>(std::lround(opt.seconds * kEpochsPerSecond)));
  const nn::Dataset data = insitu_dataset(opt.seed, kInsituSamples);

  // Set-up: session construction (network init, backend, bank) plus a
  // warm-up inference that programs the first layer.  It takes tens of
  // microseconds, so it is repeated many times for a steady median.
  std::vector<double> setups;
  std::unique_ptr<core::TrainingSession> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<core::TrainingSession>(insitu_config(opt.seed, epochs));
    (void)session->predict(data.inputs.front());
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  // A fresh session trains, so the warm-up's ledger is not in the books.
  core::SessionConfig cfg = insitu_config(opt.seed, epochs);
  std::vector<Clock::time_point> stamps;
  cfg.schedule.on_epoch_end = [&stamps](int, const nn::TrainResult&) {
    stamps.push_back(Clock::now());
  };
  session = std::make_unique<core::TrainingSession>(cfg);

  Tracer tracer;
  Tracer::Log& log = tracer.thread_log();
  const auto t0 = Clock::now();
  const core::SessionReport report = session->run(data);
  const auto t1 = Clock::now();

  const auto train_samples =
      static_cast<double>(data.split(cfg.test_fraction).first.size());
  std::vector<double> per_sample_us;
  Clock::time_point prev = t0;
  for (std::size_t e = 0; e < stamps.size(); ++e) {
    per_sample_us.push_back(seconds_between(prev, stamps[e]) * 1e6 / train_samples);
    log.add("train.epoch", e + 1, 0, prev, stamps[e]);
    prev = stamps[e];
  }
  log.add("train.evaluate", stamps.size() + 1, 0, prev, t1);
  const double train_s = seconds_between(t0, prev);
  const double trained = train_samples * static_cast<double>(stamps.size());

  bool finite = !report.epoch_loss.empty();
  for (double l : report.epoch_loss) {
    finite = finite && std::isfinite(l);
  }
  out.books.attempted = static_cast<std::uint64_t>(trained);
  out.books.succeeded = finite ? out.books.attempted : 0;
  out.books.failed = finite ? 0 : out.books.attempted;
  out.books.mismatched = out.books.failed;

  const LatencyStats lat = summarize(per_sample_us);
  out.e2e.set("setup_s", median(setups), "s");
  out.e2e.set("latency_p50_us", lat.p50, "us");
  out.e2e.set("latency_p90_us", lat.p90, "us");
  out.e2e.set("throughput_per_s", trained / train_s, "1/s");
  out.e2e.set("ok_ratio", finite ? 1.0 : 0.0, "ratio");
  out.e2e.set("sim_energy_per_op_nj",
              report.ledger.energy().J() * 1e9 / trained, "nJ");

  const double final_loss = finite ? report.epoch_loss.back() : NAN;
  out.layers.set("client.latency_p99_us", lat.p99, "us");
  out.layers.set("train.test_accuracy", report.test_accuracy, "ratio");
  out.layers.set("train.final_loss", final_loss, "nats");

  std::ostringstream o;
  o << "insitu: " << stamps.size() << " epochs x " << train_samples
    << " samples, test accuracy " << report.test_accuracy << ", final loss "
    << final_loss << " (bits 0x" << std::hex
    << std::bit_cast<std::uint64_t>(final_loss) << std::dec
    << "), ledger writes " << report.ledger.weight_writes << ", program events "
    << report.ledger.program_events << ", symbols " << report.ledger.symbols
    << ", macs " << report.ledger.macs << ", activations "
    << report.ledger.activations;
  out.notes.push_back(o.str());
  out.notes.push_back(describe("per-sample step (epoch mean)", lat));
  if (opt.trace) {
    write_trace(tracer, opt, "insitu-train");
  }
}

}  // namespace perfbench
