// Chaos-layer unit tests: fault-plan determinism, injection mechanics of
// the ChaosBackend decorator, and its layering over both the plain
// photonic backend and the stuck-cell FaultyBackend.
#include "chaos/chaos_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "chaos/fault_plan.hpp"
#include "common/error.hpp"
#include "core/faults.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"

namespace trident::chaos {
namespace {

FaultPlanConfig noisy_config() {
  FaultPlanConfig cfg;
  cfg.horizon_ops = 512;
  cfg.transient_error_rate = 0.05;
  cfg.nan_rate = 0.05;
  cfg.stuck_read_rate = 0.05;
  cfg.stall_rate = 0.02;
  cfg.stall_duration = std::chrono::microseconds(1);
  return cfg;
}

// --- FaultPlan determinism --------------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultPlan a(noisy_config(), 0xC0FFEE);
  const FaultPlan b(noisy_config(), 0xC0FFEE);
  for (int replica = 0; replica < 3; ++replica) {
    for (int incarnation = 0; incarnation < 2; ++incarnation) {
      EXPECT_EQ(a.schedule(replica, incarnation),
                b.schedule(replica, incarnation))
          << "replica " << replica << " incarnation " << incarnation;
    }
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  const FaultPlan a(noisy_config(), 1);
  const FaultPlan b(noisy_config(), 2);
  EXPECT_NE(a.schedule(0, 0), b.schedule(0, 0));
}

TEST(FaultPlan, StreamsIndependentAcrossReplicasAndIncarnations) {
  const FaultPlan plan(noisy_config(), 7);
  EXPECT_NE(plan.schedule(0, 0), plan.schedule(1, 0));
  EXPECT_NE(plan.schedule(0, 0), plan.schedule(0, 1));
}

TEST(FaultPlan, ScheduleSortedByOpWithinHorizon) {
  const FaultPlan plan(noisy_config(), 99);
  const auto events = plan.schedule(0, 0);
  EXPECT_FALSE(events.empty()) << "5% rates over 512 ops must fire";
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].op, events[i].op);
  }
  for (const FaultEvent& e : events) {
    EXPECT_LT(e.op, noisy_config().horizon_ops);
  }
}

TEST(FaultPlan, ScriptedDeathOnlyForFirstIncarnation) {
  FaultPlanConfig cfg;  // no background rates: deaths only
  cfg.deaths = {{1, 40}};
  const FaultPlan plan(cfg, 5);
  EXPECT_TRUE(plan.schedule(0, 0).empty());
  const auto doomed = plan.schedule(1, 0);
  ASSERT_EQ(doomed.size(), 1u);
  EXPECT_EQ(doomed[0].kind, FaultKind::kReplicaDeath);
  EXPECT_EQ(doomed[0].op, 40u);
  // The restarted incarnation is not re-killed.
  EXPECT_TRUE(plan.schedule(1, 1).empty());
}

TEST(FaultPlan, RejectsBadRates) {
  FaultPlanConfig bad;
  bad.nan_rate = 1.5;
  EXPECT_THROW(FaultPlan(bad, 0), Error);
  bad = {};
  bad.transient_error_rate = -0.1;
  EXPECT_THROW(FaultPlan(bad, 0), Error);
}

// --- ChaosBackend mechanics -------------------------------------------------

std::unique_ptr<ChaosBackend> make_chaos(const FaultPlanConfig& cfg,
                                         std::uint64_t seed,
                                         std::shared_ptr<InjectionLog> log = {},
                                         int replica = 0) {
  return std::make_unique<ChaosBackend>(
      std::make_unique<core::PhotonicBackend>(),
      std::make_shared<FaultPlan>(cfg, seed), replica, 0, std::move(log));
}

TEST(ChaosBackend, ZeroRatePlanIsBitIdenticalPassThrough) {
  core::PhotonicBackend reference;
  auto chaos = make_chaos(FaultPlanConfig{}, 1);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(3, 4, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  const nn::Matrix expect = reference.matmul(w, x);
  const nn::Matrix got = chaos->matmul(w, x);
  ASSERT_EQ(got.rows(), expect.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], expect.data()[i]);
  }
  EXPECT_EQ(chaos->ops(), 1u);
  EXPECT_TRUE(chaos->events().empty());
}

TEST(ChaosBackend, ScriptedDeathThrowsHardwareFailureAtExactOp) {
  FaultPlanConfig cfg;
  cfg.deaths = {{0, 2}};  // third linear-primitive call dies
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 3, log);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(2, 4, 0.1);
  (void)chaos->matmul(w, x);              // op 0
  (void)chaos->matmul_transposed(w, x);   // op 1
  EXPECT_THROW((void)chaos->matmul(w, x), HardwareFailure);  // op 2
  EXPECT_EQ(log->snapshot().deaths, 1u);
  EXPECT_EQ(chaos->ops(), 3u);
}

TEST(ChaosBackend, TransientErrorIsConsumedSoRetrySucceeds) {
  // Schedule a transient error on every op of a 1-op horizon; op 0 throws
  // trident::Error (retryable, NOT HardwareFailure), and the retry — a
  // fresh op past the horizon — goes through clean.
  FaultPlanConfig cfg;
  cfg.horizon_ops = 1;
  cfg.transient_error_rate = 1.0;
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 4, log);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(1, 4, 0.1);
  EXPECT_THROW((void)chaos->matmul(w, x), Error);
  try {
    (void)make_chaos(cfg, 4)->matmul(w, x);
  } catch (const HardwareFailure&) {
    FAIL() << "a transient error must not be a HardwareFailure";
  } catch (const Error&) {
  }
  const nn::Matrix retried = chaos->matmul(w, x);  // op 1: past horizon
  EXPECT_EQ(retried.rows(), 1u);
  EXPECT_EQ(log->snapshot().transient_errors, 1u);
}

TEST(ChaosBackend, NanInjectionCorruptsOutputOnce) {
  FaultPlanConfig cfg;
  cfg.horizon_ops = 1;
  cfg.nan_rate = 1.0;
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 5, log);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(2, 4, 0.1);
  const nn::Matrix hit = chaos->matmul(w, x);
  EXPECT_TRUE(std::isnan(hit.data()[0]));
  const nn::Matrix clean = chaos->matmul(w, x);  // past horizon
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(std::isfinite(clean.data()[i]));
  }
  EXPECT_EQ(log->snapshot().nans, 1u);
}

TEST(ChaosBackend, StuckReadIsFiniteButWrong) {
  FaultPlanConfig cfg;
  cfg.horizon_ops = 1;
  cfg.stuck_read_rate = 1.0;
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 6, log);
  core::PhotonicBackend reference;
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(1, 4, 0.1);
  const nn::Matrix expect = reference.matmul(w, x);
  const nn::Matrix got = chaos->matmul(w, x);
  EXPECT_TRUE(std::isfinite(got.data()[0]));
  EXPECT_EQ(got.data()[0], expect.data()[0] + 1.0);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], expect.data()[i]);
  }
  EXPECT_EQ(log->snapshot().stuck_reads, 1u);
}

TEST(ChaosBackend, UpdatePrimitivesSkipOutputCorruption) {
  // rank1_update has no returned output: NaN/stuck events on its op are
  // skipped (and not logged), while throwing faults still apply.
  FaultPlanConfig cfg;
  cfg.horizon_ops = 1;
  cfg.nan_rate = 1.0;
  cfg.stuck_read_rate = 1.0;
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 7, log);
  nn::Matrix w(4, 4, 0.3);
  const nn::Matrix v(1, 4, 0.1);
  chaos->update_batch(w, v, v, 0.01);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(std::isfinite(w.data()[i]));
  }
  EXPECT_EQ(log->snapshot().total(), 0u);
  EXPECT_EQ(chaos->ops(), 1u);
}

TEST(ChaosBackend, StallDelaysButCompletes) {
  FaultPlanConfig cfg;
  cfg.horizon_ops = 1;
  cfg.stall_rate = 1.0;
  cfg.stall_duration = std::chrono::microseconds(500);
  auto log = std::make_shared<InjectionLog>();
  auto chaos = make_chaos(cfg, 8, log);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(1, 4, 0.1);
  const nn::Matrix out = chaos->matmul(w, x);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(log->snapshot().stalls, 1u);
}

TEST(ChaosBackend, SameSeedSameInjectionSequence) {
  // Determinism end-to-end: two injectors with the same (seed, config)
  // driven by the same call sequence log identical counts and leave
  // identical schedules behind.
  FaultPlanConfig cfg = noisy_config();
  auto log_a = std::make_shared<InjectionLog>();
  auto log_b = std::make_shared<InjectionLog>();
  auto a = make_chaos(cfg, 0xABCD, log_a);
  auto b = make_chaos(cfg, 0xABCD, log_b);
  EXPECT_EQ(a->events(), b->events());
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(1, 4, 0.1);
  for (int i = 0; i < 64; ++i) {
    try {
      (void)a->matmul(w, x);
    } catch (const Error&) {
    }
    try {
      (void)b->matmul(w, x);
    } catch (const Error&) {
    }
  }
  EXPECT_EQ(log_a->snapshot(), log_b->snapshot());
  EXPECT_GT(log_a->snapshot().total(), 0u);
}

TEST(ChaosBackend, LayersOverFaultyBackend) {
  // Full stack: chaos over FaultyBackend over PhotonicBackend.  With a
  // zero-rate plan the stack must be bit-identical to the bare
  // FaultyBackend (same config seed → same frozen mask for the same
  // matrix object); with a stuck-read plan it must differ.
  core::FaultConfig faults;
  faults.fault_rate = 0.2;
  faults.seed = 21;
  core::FaultyBackend reference(faults);

  ChaosBackend quiet(std::make_unique<core::FaultyBackend>(faults),
                     std::make_shared<FaultPlan>(FaultPlanConfig{}, 1), 0, 0);
  nn::Matrix w(6, 6, 0.4);
  nn::Matrix x(2, 6, 0.2);
  const nn::Matrix expect = reference.matmul(w, x);
  const nn::Matrix got = quiet.matmul(w, x);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], expect.data()[i]);
  }

  FaultPlanConfig stuck;
  stuck.horizon_ops = 1;
  stuck.stuck_read_rate = 1.0;
  ChaosBackend loud(std::make_unique<core::FaultyBackend>(faults),
                    std::make_shared<FaultPlan>(stuck, 1), 0, 0);
  const nn::Matrix corrupted = loud.matmul(w, x);
  EXPECT_NE(corrupted.data()[0], expect.data()[0]);
}

TEST(ChaosBackend, FactoriesProduceWorkingReplicaBackends) {
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{}, 9);
  core::PhotonicBackendConfig cfg;

  const serving::BackendFactory photonic = chaos_photonic_factory(plan);
  serving::ReplicaBackend rb = photonic(0, 0, cfg);
  ASSERT_NE(rb.backend, nullptr);
  ASSERT_NE(rb.ledger, nullptr);
  nn::Matrix w(4, 4, 0.3);
  nn::Matrix x(1, 4, 0.1);
  (void)rb.backend->matmul(w, x);
  EXPECT_GT(rb.ledger().macs, 0u);

  core::FaultConfig faults;
  faults.fault_rate = 0.1;
  const serving::BackendFactory faulty = chaos_faulty_factory(faults, plan);
  serving::ReplicaBackend rf = faulty(1, 0, cfg);
  ASSERT_NE(rf.backend, nullptr);
  ASSERT_NE(rf.ledger, nullptr);
  (void)rf.backend->matmul(w, x);
  EXPECT_GT(rf.ledger().macs, 0u);
}

}  // namespace
}  // namespace trident::chaos
