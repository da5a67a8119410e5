// Photonic execution backend for the functional NN simulation.
//
// Implements nn::MatvecBackend with the behavioural constraints of the
// Trident hardware, without paying device-model cost per ring:
//
//   * weights live in GST cells → stored values are quantized to the
//     configured bit resolution (8 for GST, 6 for the thermal ablation);
//     SGD updates smaller than half an LSB are lost to rounding, which is
//     exactly why the paper says 6-bit hardware cannot train [34];
//   * inputs pass through the modulator DAC → input quantization;
//   * the analog accumulation can carry additive read-out noise;
//   * per-layer scaling mirrors hardware practice: the weight matrix is
//     normalised by its max |w| before programming and the scale is
//     re-applied electronically after detection;
//   * non-volatility: programming is charged only when the bank contents
//     actually change (weight reuse between calls is free — the 0.67 W →
//     0.11 W effect), and each programming event costs one parallel
//     write-pulse time;
//   * energy/time books: writes, symbols, reads, activations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/quantize.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "nn/mlp.hpp"

namespace trident::core {

struct PhotonicBackendConfig {
  int weight_bits = 8;        ///< GST levels → 8; thermal crosstalk → 6
  int input_bits = 8;         ///< modulator DAC resolution
  double readout_noise = 0.0; ///< relative additive noise on each output
  /// Stochastic rounding of programmed weights (programming jitter acts as
  /// dither; off = deterministic round-to-nearest level).
  bool stochastic_rounding = false;
  std::uint64_t seed = 0x7d3ull;
};

/// Energy/latency ledger of everything the backend executed.
struct PhotonicLedger {
  std::uint64_t weight_writes = 0;     ///< GST cells programmed
  std::uint64_t program_events = 0;    ///< parallel bank writes
  std::uint64_t symbols = 0;           ///< optical symbols streamed
  std::uint64_t macs = 0;              ///< ring read-outs
  std::uint64_t activations = 0;       ///< GST activation firing events

  [[nodiscard]] units::Energy energy() const;
  [[nodiscard]] units::Time time() const;

  /// Zeroes all counters (start of a measured phase).
  void reset() { *this = PhotonicLedger{}; }

  friend bool operator==(const PhotonicLedger&,
                         const PhotonicLedger&) = default;
};

namespace detail {
/// Mirrors a ledger delta into the process-wide trident_ledger_* telemetry
/// counters (no-op when telemetry is disabled).  Every backend that keeps a
/// PhotonicLedger must mirror through here with the exact amounts it just
/// added, so a metrics snapshot reconstructs the summed ledger of ALL
/// backends in the process bit-for-bit — the invariant
/// chaos::check_ledger_conservation audits.
void mirror_ledger_delta(const PhotonicLedger& delta);
}  // namespace detail

/// Per-phase attribution: `after - before` is the hardware bill of
/// whatever ran in between (forward vs backward, per epoch, …) without
/// manual counter snapshots.  `before` must be an earlier snapshot of the
/// same monotonic ledger.
[[nodiscard]] PhotonicLedger operator-(const PhotonicLedger& after,
                                       const PhotonicLedger& before);
/// Aggregation across backends (e.g. summing an 8-bit and a 6-bit run's
/// bills; energy()/time() are linear in the counters, so the sum's bill is
/// the bill of the sum).
[[nodiscard]] PhotonicLedger operator+(const PhotonicLedger& a,
                                       const PhotonicLedger& b);

class PhotonicBackend final : public nn::MatvecBackend {
 public:
  explicit PhotonicBackend(const PhotonicBackendConfig& config = {});

  /// Forward: quantizes the whole input block in one pass, charges the
  /// ledger once per block, and runs the blocked GEMM kernel.  Outputs,
  /// noise draws, and ledger counters do not depend on how samples are
  /// split into calls.
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  /// Gradient-vector pass, with one bank re-encode per sample — the
  /// hardware really does re-program Wᵀ for each gradient symbol pair
  /// (Table II).
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  /// In-situ SGD: one optical outer product and one GST programming step
  /// per sample, in batch order.  Programming quantizes after every
  /// sample, so the result is defined BY that order.  With stochastic
  /// rounding each sample draws one uniform per cell, row-major, then runs
  /// the vectorized stochastic_round_update kernel.
  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) override;

  /// Fused plan execution: per layer, programs the plan's own weight panel,
  /// quantizes the block into the arena, multiplies against the pre-clamped
  /// panel, then applies noise/re-scale and the activation epilogue in
  /// place.  Outputs, RNG draws, and ledger counters are bit-identical to
  /// Mlp::forward_batch through matmul; matmul's per-call weight range scan
  /// (and clamped copy, for out-of-range weights) is the only work removed.
  /// Zero steady-state heap allocation.
  bool run_plan(const nn::ExecutionPlan& plan, const nn::Matrix& x,
                nn::PlanArena& arena) override;

  [[nodiscard]] const PhotonicLedger& ledger() const { return ledger_; }
  [[nodiscard]] const PhotonicBackendConfig& config() const { return config_; }

  /// LSB of the stored-weight quantizer at unit scale.
  [[nodiscard]] double weight_lsb() const { return weight_quantizer_.step(); }

  // --- snapshot/restore hooks (state::Snapshot) --------------------------

  /// Serialised state of the hardware RNG (noise + stochastic rounding
  /// draws), so a resumed run replays the exact draw sequence.
  [[nodiscard]] std::string rng_state() const { return rng_.state(); }
  void restore_rng_state(const std::string& text) {
    rng_.restore_state(text);
  }

  /// Overwrites the ledger with a snapshotted one.  Deliberately NOT
  /// mirrored into telemetry: the metrics counters track operations this
  /// process executed, and restoring historical books must not re-count
  /// pulses a previous process already mirrored.
  void restore_ledger(const PhotonicLedger& ledger) { ledger_ = ledger; }

  /// Marks `w` as the matrix currently programmed into the bank, so the
  /// next forward through it skips the program burst (the physical cells
  /// kept their phase across the restart — non-volatility).
  void mark_resident(const nn::Matrix& w) { resident_matrix_ = &w; }
  [[nodiscard]] bool is_resident(const nn::Matrix& w) const {
    return resident_matrix_ == &w;
  }

 private:
  /// Charges programming for `w` unless it is still resident.
  void ensure_programmed(const nn::Matrix& w);
  /// Read-out noise and TIA re-scale, drawn per sample then per row.
  void noise_and_rescale(nn::Matrix& y, const nn::Vector& scale);

  PhotonicBackendConfig config_;
  SymmetricQuantizer weight_quantizer_;
  SymmetricQuantizer input_quantizer_;
  Rng rng_;
  /// Per-sample stochastic-rounding draws, one per cell (reused scratch).
  std::vector<double> draws_;
  PhotonicLedger ledger_;
  const void* resident_matrix_ = nullptr;
};

}  // namespace trident::core
