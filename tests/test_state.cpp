// state::Snapshot: format round-trips, byte stability, corruption
// rejection, atomic save, and the WeightBank / GstCell / Rng restore hooks
// it persists.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "core/weight_bank.hpp"
#include "nn/mlp.hpp"
#include "state/snapshot.hpp"

namespace {

using namespace trident;

/// Unique temp path per test; cleaned up by the fixture.
class StateFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("trident_state_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

[[nodiscard]] state::Snapshot random_snapshot(std::uint64_t seed) {
  Rng rng(seed);
  const nn::Mlp net({5, 9, 3}, nn::Activation::kGstPhotonic, rng);
  state::Snapshot snap;
  snap.model = state::capture_model(net);

  state::LedgerState ledger;
  ledger.weight_writes = rng.seed() % 1000;
  ledger.program_events = 17;
  ledger.symbols = 123456;
  ledger.macs = 999;
  ledger.activations = 42;
  snap.ledger = ledger;

  state::BankState bank;
  bank.rows = 3;
  bank.cols = 4;
  for (int i = 0; i < 12; ++i) {
    bank.levels.push_back(static_cast<std::int32_t>(rng.uniform_int(0, 254)));
    bank.writes.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 50)));
    bank.reads.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 500)));
  }
  bank.symbol_reads = 777;
  snap.banks.push_back(bank);

  state::TrainingState t;
  t.epochs_completed = 4;
  t.epoch_loss = {0.9, 0.5, 0.3, 0.2};
  t.epoch_accuracy = {0.5, 0.7, 0.8, 0.85};
  t.learning_rate = 0.05;
  t.shuffle = 1;
  t.shuffle_seed = 7;
  t.batch_size = 2;
  t.weight_bits = 8;
  t.input_bits = 8;
  t.readout_noise = 0.02;
  t.stochastic_rounding = 1;
  t.hw_seed = 0x7d3ull;
  t.backend_rng = Rng(31).state();
  t.resident_layer = 1;
  snap.training = t;
  return snap;
}

void expect_snapshots_equal(const state::Snapshot& a,
                            const state::Snapshot& b) {
  EXPECT_EQ(a.model.layer_sizes, b.model.layer_sizes);
  EXPECT_EQ(a.model.activation, b.model.activation);
  ASSERT_EQ(a.model.weights.size(), b.model.weights.size());
  for (std::size_t k = 0; k < a.model.weights.size(); ++k) {
    EXPECT_EQ(a.model.weights[k].data(), b.model.weights[k].data())
        << "weight " << k;
  }
  ASSERT_EQ(a.ledger.has_value(), b.ledger.has_value());
  if (a.ledger) {
    EXPECT_EQ(a.ledger->weight_writes, b.ledger->weight_writes);
    EXPECT_EQ(a.ledger->symbols, b.ledger->symbols);
  }
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].levels, b.banks[i].levels);
    EXPECT_EQ(a.banks[i].writes, b.banks[i].writes);
    EXPECT_EQ(a.banks[i].reads, b.banks[i].reads);
    EXPECT_EQ(a.banks[i].symbol_reads, b.banks[i].symbol_reads);
  }
  ASSERT_EQ(a.training.has_value(), b.training.has_value());
  if (a.training) {
    EXPECT_EQ(a.training->epochs_completed, b.training->epochs_completed);
    EXPECT_EQ(a.training->epoch_loss, b.training->epoch_loss);
    EXPECT_EQ(a.training->epoch_accuracy, b.training->epoch_accuracy);
    EXPECT_EQ(a.training->backend_rng, b.training->backend_rng);
    EXPECT_EQ(a.training->resident_layer, b.training->resident_layer);
    EXPECT_EQ(a.training->hw_seed, b.training->hw_seed);
  }
}

TEST(SnapshotFormat, SerializeDeserializeRoundTrips) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const state::Snapshot snap = random_snapshot(seed);
    const std::string bytes = snap.serialize();
    const state::Snapshot back = state::Snapshot::deserialize(bytes);
    expect_snapshots_equal(snap, back);
  }
}

TEST(SnapshotFormat, SaveLoadSaveIsByteStable) {
  // The acceptance criterion: a snapshot that survives one save → load
  // cycle re-serialises to the identical byte string.
  for (std::uint64_t seed : {3ull, 0xc0ffeeull}) {
    const state::Snapshot snap = random_snapshot(seed);
    const std::string first = snap.serialize();
    const std::string second = state::Snapshot::deserialize(first).serialize();
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(SnapshotFormat, MinimalSnapshotNeedsOnlyModel) {
  Rng rng(5);
  const nn::Mlp net({2, 3, 2}, nn::Activation::kReLU, rng);
  state::Snapshot snap;
  snap.model = state::capture_model(net);
  const state::Snapshot back = state::Snapshot::deserialize(snap.serialize());
  EXPECT_FALSE(back.ledger.has_value());
  EXPECT_TRUE(back.banks.empty());
  EXPECT_FALSE(back.training.has_value());
  expect_snapshots_equal(snap, back);
}

TEST(SnapshotFormat, CorruptedByteIsRejected) {
  const state::Snapshot snap = random_snapshot(11);
  std::string bytes = snap.serialize();
  // Flip one bit in the middle of the payload: the checksum must catch it.
  bytes[bytes.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(bytes[bytes.size() / 2]) ^
                        0x40u);
  EXPECT_THROW((void)state::Snapshot::deserialize(bytes), Error);
}

TEST(SnapshotFormat, TruncatedFileIsRejected) {
  const state::Snapshot snap = random_snapshot(12);
  const std::string bytes = snap.serialize();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{19}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_THROW((void)state::Snapshot::deserialize(bytes.substr(0, keep)),
                 Error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(SnapshotFormat, BadMagicIsRejected) {
  const state::Snapshot snap = random_snapshot(13);
  std::string bytes = snap.serialize();
  // Re-checksum after vandalising the magic so the magic check itself (not
  // the checksum) is what rejects the file.
  bytes[0] = 'X';
  std::string body = bytes.substr(0, bytes.size() - 8);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
  }
  EXPECT_THROW((void)state::Snapshot::deserialize(body), Error);
}

TEST_F(StateFile, SaveAndLoadViaDisk) {
  const state::Snapshot snap = random_snapshot(21);
  const std::string file = path("snap.tsnap");
  snap.save(file);
  const state::Snapshot back = state::Snapshot::load(file);
  expect_snapshots_equal(snap, back);
}

TEST_F(StateFile, SaveLeavesNoTempResidue) {
  const state::Snapshot snap = random_snapshot(22);
  const std::string file = path("snap.tsnap");
  snap.save(file);
  snap.save(file);  // overwrite path exercises rename-over-existing
  EXPECT_TRUE(std::filesystem::exists(file));
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

TEST_F(StateFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)state::Snapshot::load(path("nope.tsnap")), Error);
}

TEST_F(StateFile, LoadCorruptedFileThrows) {
  const state::Snapshot snap = random_snapshot(23);
  const std::string file = path("snap.tsnap");
  snap.save(file);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('\x7f');
  }
  EXPECT_THROW((void)state::Snapshot::load(file), Error);
}

TEST(ModelRestore, RebuildsBitIdenticalNetwork) {
  Rng rng(0x5eed);
  const nn::Mlp net({8, 16, 4}, nn::Activation::kGstPhotonic, rng);
  const nn::Mlp back = state::restore_model(state::capture_model(net));
  ASSERT_EQ(back.layer_sizes(), net.layer_sizes());
  EXPECT_EQ(back.hidden_activation(), net.hidden_activation());
  for (int k = 0; k < net.depth(); ++k) {
    EXPECT_EQ(back.weight(k).data(), net.weight(k).data()) << "layer " << k;
  }
}

TEST(ModelRestore, IntoMismatchedArchitectureThrows) {
  Rng rng(9);
  const nn::Mlp src({4, 6, 2}, nn::Activation::kGstPhotonic, rng);
  nn::Mlp wrong_shape({4, 7, 2}, nn::Activation::kGstPhotonic, rng);
  nn::Mlp wrong_act({4, 6, 2}, nn::Activation::kReLU, rng);
  const state::ModelState m = state::capture_model(src);
  EXPECT_THROW(state::restore_model_into(m, wrong_shape), Error);
  EXPECT_THROW(state::restore_model_into(m, wrong_act), Error);
}

TEST(LedgerConversion, RoundTripsThroughState) {
  core::PhotonicLedger ledger;
  ledger.weight_writes = 10;
  ledger.program_events = 2;
  ledger.symbols = 300;
  ledger.macs = 4000;
  ledger.activations = 50;
  const auto back = state::ledger_from_state<core::PhotonicLedger>(
      state::to_ledger_state(ledger));
  EXPECT_EQ(back, ledger);
}

TEST(GstRestore, SetsLevelAndCountersWithoutBilling) {
  phot::GstCell cell;
  cell.restore(200, 12, 345);
  EXPECT_EQ(cell.level(), 200);
  EXPECT_EQ(cell.writes(), 12u);
  EXPECT_EQ(cell.reads(), 345u);
  // restore() itself billed nothing beyond the carried-over history.
  EXPECT_DOUBLE_EQ(cell.total_write_energy().J(),
                   cell.params().write_energy.J() * 12.0);
  EXPECT_THROW(cell.restore(255, 0, 0), Error);
  EXPECT_THROW(cell.restore(-1, 0, 0), Error);
}

TEST(BankRestore, RoundTripsPhysicalStateExactly) {
  Rng noise(77);
  core::WeightBankConfig cfg;
  cfg.rows = 3;
  cfg.cols = 4;
  cfg.plan = phot::ChannelPlan{4};
  cfg.gst.programming_noise_levels = 1.0;
  cfg.rng = &noise;
  core::WeightBank bank(cfg);

  nn::Matrix w(3, 4);
  Rng wrng(5);
  for (double& v : w.data()) {
    v = wrng.uniform(-1.0, 1.0);
  }
  (void)bank.program(w);
  nn::Vector probe(4, 0.5);
  const nn::Vector out_before = bank.apply(probe);

  const state::BankState snap = bank.capture_state();

  // A fresh bank (same geometry, no history) restored from the snapshot
  // must reproduce the programmed response and the historical accounting.
  core::WeightBankConfig cfg2 = cfg;
  cfg2.rng = nullptr;
  core::WeightBank healed(cfg2);
  healed.restore_state(snap);
  EXPECT_EQ(healed.total_writes(), bank.total_writes());
  EXPECT_EQ(healed.total_reads(), bank.total_reads());
  EXPECT_DOUBLE_EQ(healed.total_write_energy().J(),
                   bank.total_write_energy().J());
  const nn::Vector out_healed = healed.apply(probe);
  ASSERT_EQ(out_healed.size(), out_before.size());
  for (std::size_t i = 0; i < out_before.size(); ++i) {
    EXPECT_EQ(out_healed[i], out_before[i]) << "row " << i;
  }

  core::WeightBankConfig cfg3 = cfg;
  cfg3.rows = 2;
  cfg3.rng = nullptr;
  core::WeightBank wrong(cfg3);
  EXPECT_THROW(wrong.restore_state(snap), Error);
}

TEST(RngState, RestoreReplaysDrawSequence) {
  Rng a(123);
  (void)a.uniform();
  (void)a.normal();
  const std::string saved = a.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(a.normal());
  }
  Rng b(123);
  b.restore_state(saved);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(b.normal(), expected[static_cast<std::size_t>(i)]) << i;
  }
  Rng c(0);
  EXPECT_THROW(c.restore_state("not a generator state"), Error);
}

TEST(BackendState, RngRoundTripAndLedgerRestoreUnmirrored) {
  core::PhotonicBackendConfig cfg;
  cfg.readout_noise = 0.05;
  core::PhotonicBackend a(cfg);
  nn::Matrix w(2, 3, 0.25);
  nn::Vector x{0.1, -0.2, 0.3};
  (void)a.matmul(w, nn::as_row(x));
  const std::string rng_saved = a.rng_state();
  const nn::Vector next_a = a.matmul(w, nn::as_row(x)).data();

  core::PhotonicBackend b(cfg);
  b.restore_rng_state(rng_saved);
  b.restore_ledger(a.ledger());
  b.mark_resident(w);
  EXPECT_TRUE(b.is_resident(w));
  const nn::Vector next_b = b.matmul(w, nn::as_row(x)).data();
  // Same RNG state + resident weights: the restored backend's next output
  // is bit-identical, and residency means no new program burst is billed.
  EXPECT_EQ(next_b, next_a);
  EXPECT_EQ(b.ledger().weight_writes, a.ledger().weight_writes);
}

}  // namespace
