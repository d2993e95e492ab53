#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <bitset>
#include <random>
#include <stdexcept>

#include "lte/abs.h"
#include "lte/allocation.h"
#include "lte/harq.h"
#include "lte/tables.h"
#include "lte/types.h"

namespace flexran::lte {
namespace {

// ---------------------------------------------------------------- Tables --

TEST(Tables, BandwidthToPrbs) {
  EXPECT_EQ(prb_count_for_bandwidth_mhz(1.4), 6);
  EXPECT_EQ(prb_count_for_bandwidth_mhz(5.0), 25);
  EXPECT_EQ(prb_count_for_bandwidth_mhz(10.0), 50);
  EXPECT_EQ(prb_count_for_bandwidth_mhz(20.0), 100);
}

TEST(Tables, CqiEfficiencyEndpoints) {
  EXPECT_DOUBLE_EQ(cqi_efficiency(0), 0.0);
  EXPECT_DOUBLE_EQ(cqi_efficiency(1), 0.1523);
  EXPECT_DOUBLE_EQ(cqi_efficiency(15), 5.5547);
  // Clamping.
  EXPECT_DOUBLE_EQ(cqi_efficiency(99), 5.5547);
  EXPECT_DOUBLE_EQ(cqi_efficiency(-1), 0.0);
}

class CqiSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(AllCqis, CqiSweep, ::testing::Range(1, 16));

TEST_P(CqiSweep, EfficiencyIsStrictlyIncreasing) {
  const int cqi = GetParam();
  if (cqi > 1) {
    EXPECT_GT(cqi_efficiency(cqi), cqi_efficiency(cqi - 1));
  }
}

TEST_P(CqiSweep, McsMappingIsMonotonic) {
  const int cqi = GetParam();
  EXPECT_GE(cqi_to_mcs(cqi), 0);
  EXPECT_LE(cqi_to_mcs(cqi), kMaxMcs);
  if (cqi > 1) {
    EXPECT_GT(cqi_to_mcs(cqi), cqi_to_mcs(cqi - 1));
  }
}

TEST_P(CqiSweep, SinrRoundTripsToSameCqi) {
  const int cqi = GetParam();
  const double sinr = cqi_to_sinr_db(cqi);
  EXPECT_EQ(sinr_db_to_cqi(sinr), cqi) << "sinr=" << sinr;
}

TEST_P(CqiSweep, McsEfficiencyMatchesCqiTableAtMappedPoints) {
  const int cqi = GetParam();
  EXPECT_NEAR(mcs_efficiency(cqi_to_mcs(cqi)), cqi_efficiency(cqi), 1e-9);
}

TEST(Tables, McsEfficiencyMonotonic) {
  for (int mcs = 1; mcs <= kMaxMcs; ++mcs) {
    EXPECT_GE(mcs_efficiency(mcs), mcs_efficiency(mcs - 1)) << "mcs=" << mcs;
  }
}

TEST(Tables, TbsScalesWithPrbs) {
  EXPECT_EQ(tbs_bits(cqi_to_mcs(15), 0), 0);
  EXPECT_EQ(tbs_bits(-1, 50), 0);
  const auto half = tbs_bits(cqi_to_mcs(15), 25);
  const auto full = tbs_bits(cqi_to_mcs(15), 50);
  EXPECT_NEAR(static_cast<double>(full), 2.0 * static_cast<double>(half), 2.0);
}

TEST(Tables, FullBandwidthCqi15MatchesCalibration) {
  // 50 PRB at CQI 15 should give ~27.7 Mb/s at PHY (25 Mb/s app-level after
  // protocol overhead, matching Fig. 6b).
  const auto bits_per_tti = tbs_bits(cqi_to_mcs(15), 50);
  const double mbps = static_cast<double>(bits_per_tti) / 1000.0;
  EXPECT_NEAR(mbps, 27.8, 0.5);
}

TEST(Tables, CategoryCaps) {
  EXPECT_EQ(category_max_tbs_bits(4), 150752);
  EXPECT_LT(category_max_tbs_bits(1), category_max_tbs_bits(4));
}

TEST(Tables, BlerOperatingPoints) {
  const int cqi = 10;
  const int matched = cqi_to_mcs(cqi);
  EXPECT_DOUBLE_EQ(bler_for_mcs_at_cqi(matched, cqi), 0.10);
  EXPECT_LT(bler_for_mcs_at_cqi(matched - 2, cqi), 0.05);
  EXPECT_GT(bler_for_mcs_at_cqi(matched + 2, cqi), 0.5);
  EXPECT_DOUBLE_EQ(bler_for_mcs_at_cqi(matched, 0), 1.0);
}

// ------------------------------------------------------------ Allocation --

TEST(RbAllocation, SetAndCount) {
  RbAllocation alloc;
  EXPECT_TRUE(alloc.empty());
  alloc.set_range(10, 5);
  EXPECT_EQ(alloc.count(), 5);
  EXPECT_TRUE(alloc.test(12));
  EXPECT_FALSE(alloc.test(15));
}

TEST(RbAllocation, OverlapDetection) {
  RbAllocation a;
  a.set_range(0, 10);
  RbAllocation b;
  b.set_range(10, 10);
  EXPECT_FALSE(a.overlaps(b));
  b.set(5);
  EXPECT_TRUE(a.overlaps(b));
}

TEST(RbAllocation, WireWordsRoundTrip) {
  RbAllocation alloc;
  alloc.set(0);
  alloc.set(63);
  alloc.set(64);
  alloc.set(99);
  const auto restored = RbAllocation::from_words(alloc.word(0), alloc.word(1));
  EXPECT_EQ(restored, alloc);
  EXPECT_EQ(restored.count(), 4);
}

TEST(RbAllocation, OutOfBandPrbsThrow) {
  RbAllocation alloc;
  EXPECT_THROW(alloc.set(-1), std::out_of_range);
  EXPECT_THROW(alloc.set(kMaxPrbs), std::out_of_range);
  EXPECT_THROW((void)alloc.test(kMaxPrbs), std::out_of_range);
  EXPECT_TRUE(alloc.empty());
  // The in-band part of a range is set before the throw, as a PRB-by-PRB
  // loop would leave it.
  EXPECT_THROW(alloc.set_range(95, 10), std::out_of_range);
  EXPECT_EQ(alloc.count(), 5);
  EXPECT_TRUE(alloc.test(95));
  EXPECT_TRUE(alloc.test(99));
  EXPECT_EQ(alloc.highest_set(), 99);
}

TEST(RbAllocation, FromWordsDropsBitsPastTheBand) {
  // Word 1 covers PRBs 64..99: its bits 36..63 are not PRBs.
  const auto alloc = RbAllocation::from_words(0, ~0ull);
  EXPECT_EQ(alloc.count(), kMaxPrbs - 64);
  EXPECT_EQ(alloc.word(1), (1ull << (kMaxPrbs - 64)) - 1);
  EXPECT_EQ(alloc.highest_set(), kMaxPrbs - 1);
  EXPECT_EQ(alloc, RbAllocation::from_words(0, alloc.word(1)));
}

/// Random set / set_range / merge / from_words sequences, checked after
/// every step against a std::bitset oracle of the same PRBs.
TEST(RbAllocation, MatchesBitsetOracle) {
  using Oracle = std::bitset<kMaxPrbs>;
  std::mt19937_64 rng(20240617);
  const auto prb = [&] { return static_cast<int>(rng() % kMaxPrbs); };
  const auto words_of = [](const Oracle& bits) {
    std::array<std::uint64_t, 2> words{};
    for (int p = 0; p < kMaxPrbs; ++p) {
      if (bits.test(static_cast<std::size_t>(p))) words[p / 64] |= 1ull << (p % 64);
    }
    return words;
  };
  const auto expect_same = [&](const RbAllocation& alloc, const Oracle& bits) {
    for (int p = 0; p < kMaxPrbs; ++p) {
      ASSERT_EQ(alloc.test(p), bits.test(static_cast<std::size_t>(p))) << "PRB " << p;
    }
    ASSERT_EQ(alloc.count(), static_cast<int>(bits.count()));
    ASSERT_EQ(alloc.empty(), bits.none());
    int highest = -1;
    for (int p = kMaxPrbs - 1; p >= 0 && highest < 0; --p) {
      if (bits.test(static_cast<std::size_t>(p))) highest = p;
    }
    ASSERT_EQ(alloc.highest_set(), highest);
    const auto words = words_of(bits);
    ASSERT_EQ(alloc.word(0), words[0]);
    ASSERT_EQ(alloc.word(1), words[1]);
  };

  for (int trial = 0; trial < 200; ++trial) {
    RbAllocation a;
    RbAllocation b;
    Oracle oa;
    Oracle ob;
    for (int step = 0; step < 20; ++step) {
      switch (rng() % 4) {
        case 0: {
          const int p = prb();
          a.set(p);
          oa.set(static_cast<std::size_t>(p));
          break;
        }
        case 1: {
          // Ranges that may run past the band: the in-band part is set,
          // then the range throws.
          const int first = prb();
          const int count = static_cast<int>(rng() % 40);
          const bool past_band = first + count > kMaxPrbs;
          if (past_band) {
            EXPECT_THROW(b.set_range(first, count), std::out_of_range);
          } else {
            b.set_range(first, count);
          }
          for (int p = first; p < std::min(first + count, kMaxPrbs); ++p) {
            ob.set(static_cast<std::size_t>(p));
          }
          break;
        }
        case 2: {
          const std::uint64_t w0 = rng() & rng();
          const std::uint64_t w1 = rng() & rng();
          a = RbAllocation::from_words(w0, w1);
          oa.reset();
          for (int p = 0; p < kMaxPrbs; ++p) {
            if (((p < 64 ? w0 : w1) >> (p % 64)) & 1ull) oa.set(static_cast<std::size_t>(p));
          }
          break;
        }
        case 3:
          a.merge(b);
          oa |= ob;
          break;
      }
      expect_same(a, oa);
      expect_same(b, ob);
      ASSERT_EQ(a.overlaps(b), (oa & ob).any());
      ASSERT_EQ(a == b, oa == ob);
    }
  }
}

TEST(DlDci, TbsUsesAllocationSize) {
  DlDci dci;
  dci.rnti = 0x4601;
  dci.mcs = cqi_to_mcs(10);
  dci.rbs.set_range(0, 50);
  EXPECT_EQ(dci.tbs(), tbs_bits(cqi_to_mcs(10), 50));
}

// ------------------------------------------------------------------- ABS --

TEST(AbsPattern, PerFramePattern) {
  const auto pattern = AbsPattern::per_frame(4);
  EXPECT_EQ(std::popcount(pattern.to_bits()), 16);  // 4 per frame x 4 frames in 40
  EXPECT_TRUE(pattern.is_abs(0));
  EXPECT_TRUE(pattern.is_abs(3));
  EXPECT_FALSE(pattern.is_abs(4));
  EXPECT_TRUE(pattern.is_abs(10));   // repeats every frame
  EXPECT_TRUE(pattern.is_abs(403));  // wraps modulo 40
  EXPECT_FALSE(pattern.is_abs(409));
}

TEST(AbsPattern, NonePatternHasNoAbs) {
  const AbsPattern pattern;
  EXPECT_EQ(pattern.to_bits(), 0u);
  for (int sf = 0; sf < 40; ++sf) EXPECT_FALSE(pattern.is_abs(sf));
}

TEST(AbsPattern, WireRoundTrip) {
  const auto pattern = AbsPattern::from_bits(AbsPattern::per_frame(2).to_bits() | 1ull << 39);
  const auto restored = AbsPattern::from_bits(pattern.to_bits());
  EXPECT_EQ(restored, pattern);
}

// ------------------------------------------------------------------ HARQ --

TEST(Harq, AllocatesAllEightProcesses) {
  HarqEntity harq;
  for (int i = 0; i < kNumHarqProcesses; ++i) {
    auto pid = harq.find_free_process();
    ASSERT_TRUE(pid.has_value());
    harq.start(*pid, 1000, 10, 5, i);
  }
  EXPECT_FALSE(harq.find_free_process().has_value());
}

TEST(Harq, AckFreesProcessAndReturnsBits) {
  HarqEntity harq;
  const auto pid = harq.find_free_process().value();
  harq.start(pid, 4321, 10, 5, 0);
  EXPECT_EQ(harq.ack(pid), 4321);
  EXPECT_TRUE(harq.find_free_process().has_value());
  EXPECT_FALSE(harq.process(pid).active);
}

TEST(Harq, NackKeepsProcessForRetransmission) {
  HarqEntity harq;
  const auto pid = harq.find_free_process().value();
  harq.start(pid, 1000, 10, 5, 0);
  EXPECT_TRUE(harq.nack(pid));
  EXPECT_TRUE(harq.process(pid).active);
  EXPECT_EQ(harq.pending_retransmissions(), 1);
  EXPECT_EQ(harq.process(pid).retx_count, 1);
}

TEST(Harq, DropsAfterMaxRetransmissions) {
  HarqEntity harq;
  const auto pid = harq.find_free_process().value();
  harq.start(pid, 1000, 10, 5, 0);
  for (int i = 0; i < kMaxHarqRetransmissions; ++i) {
    EXPECT_TRUE(harq.nack(pid));
    harq.start(pid, 1000, 10, 5, i + 1);
  }
  EXPECT_FALSE(harq.nack(pid));  // exceeded -> dropped
  EXPECT_FALSE(harq.process(pid).active);
}

TEST(Harq, RetransmissionKeepsOriginalBlockSize) {
  HarqEntity harq;
  const auto pid = harq.find_free_process().value();
  harq.start(pid, 5000, 12, 10, 0);
  harq.nack(pid);
  // Retransmission start must not overwrite the block.
  harq.start(pid, 9999, 1, 1, 8);
  EXPECT_EQ(harq.process(pid).tb_bits, 5000);
  EXPECT_EQ(harq.ack(pid), 5000);
}

// ----------------------------------------------------------------- Types --

TEST(Types, CellConfigPrbs) {
  CellConfig cell;
  cell.bandwidth_mhz = 10.0;
  EXPECT_EQ(cell.dl_prbs(), 50);
  cell.bandwidth_mhz = 20.0;
  EXPECT_EQ(cell.dl_prbs(), 100);
}

}  // namespace
}  // namespace flexran::lte
