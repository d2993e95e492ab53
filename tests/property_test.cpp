// Property-based tests: randomized round-trips and invariants that must
// hold across the whole parameter space, not just hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "agent/schedulers.h"
#include "proto/messages.h"
#include "stack/enodeb.h"
#include "stack/rlc.h"
#include "util/rng.h"

namespace flexran {
namespace {

// ------------------------------------------------- protocol round-trips ----

/// Random-but-valid StatsReply; the encode->decode->encode fixpoint must
/// hold for arbitrary field contents.
proto::StatsReply random_stats_reply(util::Rng& rng) {
  proto::StatsReply reply;
  reply.request_id = static_cast<std::uint32_t>(rng());
  reply.subframe = rng.uniform_int(0, 1'000'000'000);
  const auto n_ues = rng.uniform_int(0, 40);
  for (int i = 0; i < n_ues; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(rng.uniform_int(1, 65535));
    for (auto& bsr : ue.bsr_bytes) bsr = static_cast<std::uint32_t>(rng() % 1'000'000);
    ue.phr_db = static_cast<std::int32_t>(rng.uniform_int(-23, 40));
    ue.wb_cqi = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    ue.wb_cqi_protected = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(rng() % 10'000'000);
    ue.pending_harq = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
    ue.dl_bytes_delivered = rng();
    ue.ul_bytes_received = rng();
    const auto n_rsrp = rng.uniform_int(0, 4);
    for (int r = 0; r < n_rsrp; ++r) {
      ue.rsrp.push_back({static_cast<lte::CellId>(rng.uniform_int(1, 100)),
                         -140.0 + 100.0 * rng.uniform()});
    }
    reply.ue_reports.push_back(ue);
  }
  if (rng.chance(0.7)) {
    proto::CellStatsReport cell;
    cell.cell_id = static_cast<lte::CellId>(rng.uniform_int(1, 100));
    cell.noise_interference_dbm = -120.0 + 40.0 * rng.uniform();
    cell.dl_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 100));
    cell.ul_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 100));
    cell.active_ues = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
    reply.cell_reports.push_back(cell);
  }
  return reply;
}

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range<std::uint64_t>(1, 21));

TEST_P(CodecProperty, StatsReplyEncodeDecodeFixpoint) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const auto original = random_stats_reply(rng);
    const auto wire = proto::pack(original, static_cast<std::uint32_t>(rng()));
    auto envelope = proto::Envelope::decode(wire);
    ASSERT_TRUE(envelope.ok());
    auto decoded = proto::unpack<proto::StatsReply>(*envelope);
    ASSERT_TRUE(decoded.ok());
    // Re-encoding the decoded message must produce identical bytes.
    EXPECT_EQ(proto::pack(*decoded, envelope->xid), wire);
    ASSERT_EQ(decoded->ue_reports.size(), original.ue_reports.size());
    for (std::size_t i = 0; i < original.ue_reports.size(); ++i) {
      EXPECT_EQ(decoded->ue_reports[i].rnti, original.ue_reports[i].rnti);
      EXPECT_EQ(decoded->ue_reports[i].dl_bytes_delivered,
                original.ue_reports[i].dl_bytes_delivered);
      ASSERT_EQ(decoded->ue_reports[i].rsrp.size(), original.ue_reports[i].rsrp.size());
    }
  }
}

TEST_P(CodecProperty, DlMacConfigFixpoint) {
  util::Rng rng(GetParam() * 977);
  for (int iter = 0; iter < 20; ++iter) {
    proto::DlMacConfig config;
    config.cell_id = static_cast<lte::CellId>(rng.uniform_int(1, 1000));
    config.target_subframe = rng.uniform_int(0, 1'000'000'000);
    const auto n = rng.uniform_int(0, 16);
    for (int i = 0; i < n; ++i) {
      lte::DlDci dci;
      dci.rnti = static_cast<lte::Rnti>(rng.uniform_int(1, 65535));
      const int first = static_cast<int>(rng.uniform_int(0, 90));
      dci.rbs.set_range(first, static_cast<int>(rng.uniform_int(1, 100 - first)));
      dci.mcs = static_cast<int>(rng.uniform_int(0, 28));
      dci.harq_pid = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      dci.new_data = rng.chance(0.5);
      config.dcis.push_back(dci);
    }
    const auto wire = proto::pack(config);
    proto::DlMacConfig decoded;
    ASSERT_TRUE(
        proto::DlMacConfig::decode_body_into(proto::Envelope::decode(wire).value().body, decoded)
            .ok());
    EXPECT_EQ(proto::pack(decoded), wire);
    for (std::size_t i = 0; i < config.dcis.size(); ++i) {
      EXPECT_EQ(decoded.dcis[i].rbs, config.dcis[i].rbs);
    }
  }
}

TEST_P(CodecProperty, DecoderNeverCrashesOnMutatedBytes) {
  util::Rng rng(GetParam() * 31337);
  const auto reply = random_stats_reply(rng);
  auto wire = proto::pack(reply);
  for (int iter = 0; iter < 200; ++iter) {
    auto corrupted = wire;
    const auto flips = rng.uniform_int(1, 8);
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng() % corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    // Must never crash; may fail or succeed with different content.
    auto envelope = proto::Envelope::decode(corrupted);
    if (envelope.ok() && envelope->type == proto::MessageType::stats_reply) {
      (void)proto::unpack<proto::StatsReply>(*envelope);
    }
  }
}

// --------------------------------------------------------- RLC conservation --

class RlcProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RlcProperty, ::testing::Range<std::uint64_t>(1, 11));

TEST_P(RlcProperty, BytesAreConserved) {
  util::Rng rng(GetParam());
  stack::RlcQueue queue;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.chance(0.6)) {
      const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(1, 5000));
      const auto lcid = static_cast<lte::Lcid>(rng.uniform_int(0, 5));
      queue.enqueue(lcid, bytes);
      enqueued += bytes;
    } else {
      dequeued += queue.dequeue(rng.uniform_int(0, 60'000));
    }
    // Invariant: everything is either still queued or was dequeued.
    ASSERT_EQ(enqueued, dequeued + queue.total_bytes());
  }
  dequeued += queue.dequeue(1'000'000'000);
  dequeued += queue.dequeue(1'000'000'000);
  EXPECT_EQ(enqueued, dequeued);
  EXPECT_TRUE(queue.empty());
}

TEST_P(RlcProperty, BitsNeededIsSufficient) {
  util::Rng rng(GetParam() * 7);
  stack::RlcQueue queue;
  for (int i = 0; i < 20; ++i) {
    queue.enqueue(static_cast<lte::Lcid>(rng.uniform_int(0, 4)),
                  static_cast<std::uint32_t>(rng.uniform_int(1, 20'000)));
  }
  const auto total = queue.total_bytes();
  EXPECT_EQ(queue.dequeue(queue.bits_needed()), total);
  EXPECT_TRUE(queue.empty());
}

/// Reference model for RlcQueue: one deque entry per packet, drained
/// packet by packet with the same per-packet L2 charge.
class PerPacketRlcQueue {
 public:
  void enqueue(lte::Lcid lcid, std::uint32_t bytes) {
    if (bytes == 0) return;
    channels_[lcid].push_back(bytes);
  }
  std::uint32_t dequeue(std::int64_t tb_bits, std::int64_t* tb_bits_left) {
    std::uint32_t drained = 0;
    for (auto& [lcid, packets] : channels_) {
      (void)lcid;
      if (tb_bits <= 0) break;
      if (packets.empty()) continue;
      auto budget = static_cast<std::uint32_t>(static_cast<double>(tb_bits) /
                                               (8.0 * stack::kL2OverheadFactor));
      while (budget > 0 && !packets.empty()) {
        std::uint32_t& head = packets.front();
        const std::uint32_t take = std::min(head, budget);
        head -= take;
        budget -= take;
        drained += take;
        tb_bits -= static_cast<std::int64_t>(static_cast<double>(take) * 8.0 *
                                             stack::kL2OverheadFactor);
        if (head == 0) packets.pop_front();
      }
    }
    *tb_bits_left = tb_bits;
    return drained;
  }
  std::uint32_t dequeue_lcid(lte::Lcid lcid, std::int64_t tb_bits) {
    auto& packets = channels_[lcid];
    auto budget = static_cast<std::uint32_t>(static_cast<double>(tb_bits) /
                                             (8.0 * stack::kL2OverheadFactor));
    std::uint32_t drained = 0;
    while (budget > 0 && !packets.empty()) {
      const std::uint32_t take = std::min(packets.front(), budget);
      packets.front() -= take;
      budget -= take;
      drained += take;
      if (packets.front() == 0) packets.pop_front();
    }
    return drained;
  }
  std::uint32_t bytes_for_lcid(lte::Lcid lcid) const {
    auto it = channels_.find(lcid);
    if (it == channels_.end()) return 0;
    std::uint32_t bytes = 0;
    for (const auto packet : it->second) bytes += packet;
    return bytes;
  }

 private:
  std::map<lte::Lcid, std::deque<std::uint32_t>> channels_;
};

TEST_P(RlcProperty, MatchesPerPacketReference) {
  // Few distinct packet sizes, so runs form and split; budgets that end
  // inside packets, span several runs, and cross logical channels.
  util::Rng rng(GetParam() * 31);
  const std::uint32_t sizes[] = {1, 187, 1400, 1500, 9000};
  stack::RlcQueue queue;
  PerPacketRlcQueue reference;
  for (int step = 0; step < 3000; ++step) {
    const auto lcid = static_cast<lte::Lcid>(rng.uniform_int(0, 4));
    const double action = rng.uniform();
    if (action < 0.55) {
      const std::uint32_t bytes = sizes[rng.uniform_int(0, 4)];
      const int burst = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < burst; ++i) {
        queue.enqueue(lcid, bytes);
        reference.enqueue(lcid, bytes);
      }
    } else if (action < 0.9) {
      const std::int64_t tb_bits = rng.uniform_int(0, 120'000);
      std::int64_t left = 0;
      std::int64_t reference_left = 0;
      ASSERT_EQ(queue.dequeue(tb_bits, &left), reference.dequeue(tb_bits, &reference_left))
          << "step " << step;
      ASSERT_EQ(left, reference_left) << "step " << step;
    } else {
      const std::int64_t tb_bits = rng.uniform_int(0, 40'000);
      ASSERT_EQ(queue.dequeue_lcid(lcid, tb_bits), reference.dequeue_lcid(lcid, tb_bits))
          << "step " << step;
    }
    std::uint32_t total = 0;
    for (lte::Lcid id = 0; id <= 4; ++id) total += reference.bytes_for_lcid(id);
    ASSERT_EQ(queue.total_bytes(), total);
    for (int lcg = 0; lcg < lte::kNumLcGroups; ++lcg) {
      std::uint32_t expected = 0;
      for (lte::Lcid id = 0; id <= 4; ++id) {
        if (stack::default_lc_group(id) == lcg) expected += reference.bytes_for_lcid(id);
      }
      ASSERT_EQ(queue.bytes_for_lc_group(lcg), expected) << "lcg " << lcg;
    }
  }
}

// ------------------------------------------------------ scheduler invariants --

struct SchedCase {
  int n_ues;
  int prbs_cap;  // 0 = no restriction
  std::uint64_t seed;
};

class SchedulerProperty : public ::testing::TestWithParam<SchedCase> {};
INSTANTIATE_TEST_SUITE_P(Grid, SchedulerProperty,
                         ::testing::Values(SchedCase{1, 0, 1}, SchedCase{4, 0, 2},
                                           SchedCase{16, 0, 3}, SchedCase{50, 0, 4},
                                           SchedCase{4, 30, 5}, SchedCase{16, 20, 6},
                                           SchedCase{50, 10, 7}, SchedCase{80, 0, 8}));

TEST_P(SchedulerProperty, DecisionsRespectBudgetAndNeverOverlap) {
  const auto param = GetParam();
  util::Rng rng(param.seed);
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  agent::AgentApi api(dp);
  if (param.prbs_cap > 0) dp.restrict_dl_prbs(param.prbs_cap);

  std::vector<lte::Rnti> rntis;
  for (int i = 0; i < param.n_ues; ++i) {
    stack::UeProfile profile;
    profile.dl_channel =
        std::make_unique<phy::FixedCqiChannel>(static_cast<int>(rng.uniform_int(1, 15)));
    profile.attach_after_ttis = 0;
    rntis.push_back(dp.add_ue(std::move(profile)));
  }
  dp.subframe_begin(1);
  for (const auto rnti : rntis) {
    if (rng.chance(0.8)) {
      dp.enqueue_dl(rnti, lte::kDefaultDrb, static_cast<std::uint32_t>(rng.uniform_int(1, 50'000)));
    }
  }
  dp.subframe_begin(2);  // refresh CQI samples

  agent::RoundRobinDlVsf rr;
  agent::ProportionalFairDlVsf pf;
  for (int round = 0; round < 20; ++round) {
    for (agent::DlSchedulerVsf* scheduler :
         std::initializer_list<agent::DlSchedulerVsf*>{&rr, &pf}) {
      const auto decision = scheduler->schedule_dl(api, 2);
      lte::RbAllocation used;
      int total_prbs = 0;
      for (const auto& dci : decision.dl) {
        EXPECT_FALSE(dci.rbs.empty());
        EXPECT_FALSE(dci.rbs.overlaps(used)) << "overlapping grants";
        used.merge(dci.rbs);
        total_prbs += dci.rbs.count();
        EXPECT_GE(dci.mcs, 0);
        EXPECT_LE(dci.mcs, lte::kMaxMcs);
        EXPECT_LT(dci.rbs.highest_set(), api.dl_prbs()) << "grant in evacuated band";
      }
      EXPECT_LE(total_prbs, api.dl_prbs());
    }
  }
}

TEST_P(SchedulerProperty, DataPlaneAcceptsEveryGeneratedDecision) {
  const auto param = GetParam();
  util::Rng rng(param.seed * 13);
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  agent::AgentApi api(dp);
  if (param.prbs_cap > 0) dp.restrict_dl_prbs(param.prbs_cap);

  for (int i = 0; i < param.n_ues; ++i) {
    stack::UeProfile profile;
    profile.dl_channel =
        std::make_unique<phy::FixedCqiChannel>(static_cast<int>(rng.uniform_int(1, 15)));
    profile.attach_after_ttis = 0;
    dp.add_ue(std::move(profile));
  }

  agent::RoundRobinDlVsf rr;
  for (std::int64_t sf = 1; sf <= 50; ++sf) {
    simulator.run_until(sf * sim::kTtiUs);
    dp.subframe_begin(sf);
    for (const auto rnti : dp.ue_rntis()) {
      if (rng.chance(0.3)) {
        dp.enqueue_dl(rnti, lte::kDefaultDrb,
                      static_cast<std::uint32_t>(rng.uniform_int(100, 20'000)));
      }
    }
    auto decision = rr.schedule_dl(api, sf);
    const auto rejected_before = dp.grants_rejected();
    if (!decision.empty()) {
      ASSERT_TRUE(dp.apply_scheduling_decision(decision).ok());
    }
    // A well-formed local decision must never be (even partially) rejected.
    EXPECT_EQ(dp.grants_rejected(), rejected_before);
    dp.subframe_end(sf);
  }
}

}  // namespace
}  // namespace flexran
