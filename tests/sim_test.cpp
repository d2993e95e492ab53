#include <gtest/gtest.h>

#include <vector>

#include "sim/sim_link.h"
#include "sim/simulator.h"

namespace flexran::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, FifoForEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilAdvancesClockWithoutOverrunning) {
  Simulator sim;
  int fired = 0;
  sim.at(1000, [&] { ++fired; });
  sim.at(2000, [&] { ++fired; });
  sim.run_until(1500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1500);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(2500);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int value = 0;
  sim.at(10, [&] {
    sim.after(5, [&] { value = 42; });
  });
  sim.run();
  EXPECT_EQ(value, 42);
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  TimeUs fired_at = -1;
  sim.at(100, [&] {
    sim.at(50, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(TtiTicker, TicksEveryMillisecond) {
  Simulator sim;
  TtiTicker ticker(sim);
  std::vector<std::int64_t> ttis;
  ticker.subscribe([&](std::int64_t tti) { ttis.push_back(tti); });
  ticker.start();
  sim.run_until(5 * kTtiUs + 1);
  ASSERT_EQ(ttis.size(), 5u);
  EXPECT_EQ(ttis.front(), 1);
  EXPECT_EQ(ttis.back(), 5);
}

TEST(TtiTicker, PriorityOrdersSubscribersWithinTick) {
  Simulator sim;
  TtiTicker ticker(sim);
  std::vector<int> order;
  ticker.subscribe([&](std::int64_t) { order.push_back(2); }, 20);
  ticker.subscribe([&](std::int64_t) { order.push_back(1); }, 10);
  ticker.subscribe([&](std::int64_t) { order.push_back(3); }, 30);
  ticker.start();
  sim.run_until(kTtiUs);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TtiTicker, DoubleStartDoesNotDoubleTick) {
  Simulator sim;
  TtiTicker ticker(sim);
  int ticks = 0;
  ticker.subscribe([&](std::int64_t) { ++ticks; });
  ticker.start();
  ticker.start();  // idempotent
  sim.run_until(3 * kTtiUs);
  EXPECT_EQ(ticks, 3);
}

TEST(TtiTicker, StopCeasesTicks) {
  Simulator sim;
  TtiTicker ticker(sim);
  int ticks = 0;
  ticker.subscribe([&](std::int64_t) {
    if (++ticks == 3) ticker.stop();
  });
  ticker.start();
  sim.run_until(100 * kTtiUs);
  EXPECT_EQ(ticks, 3);
}

// ------------------------------------------------------------ Frame pool --

TEST(FramePool, KeepsAtMostItsRecentPeakNeed) {
  FramePool pool;
  // A burst of 50 frames out at once in TTI 0...
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < 50; ++i) {
    out.push_back(pool.take(0));
    out.back().resize(100);
  }
  for (auto& buffer : out) pool.give(std::move(buffer));
  EXPECT_EQ(pool.spare(), 50u);
  // ...then one frame per TTI. Recycled buffers keep their capacity, and the
  // burst's buffers stay while it is recent...
  std::int64_t tti = 1;
  for (; tti <= static_cast<std::int64_t>(util::RecentPeak::kWindowRounds); ++tti) {
    auto buffer = pool.take(tti);
    EXPECT_TRUE(buffer.empty());
    EXPECT_GE(buffer.capacity(), 100u);
    buffer.resize(100);
    pool.give(std::move(buffer));
  }
  EXPECT_EQ(pool.spare(), 50u);
  // ...until a whole window has needed one at a time.
  for (; tti <= 2 * static_cast<std::int64_t>(util::RecentPeak::kWindowRounds); ++tti) {
    pool.give(pool.take(tti));
  }
  EXPECT_EQ(pool.spare(), 1u);
  // A buffer whose bytes were moved out comes back empty and is not kept.
  auto buffer = pool.take(tti);
  std::vector<std::uint8_t> kept = std::move(buffer);
  pool.give(std::move(buffer));
  EXPECT_EQ(pool.spare(), 0u);
}

// ----------------------------------------------------------------- Links --

TEST(SimLink, DeliversAfterConfiguredDelay) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(15)});
  TimeUs delivered_at = -1;
  link.set_deliver([&](std::vector<std::uint8_t> data) {
    EXPECT_EQ(data.size(), 3u);
    delivered_at = sim.now();
  });
  sim.at(1000, [&] { link.send({1, 2, 3}); });
  sim.run();
  EXPECT_EQ(delivered_at, 1000 + from_ms(15));
}

TEST(SimLink, RateLimitSerializesBackToBack) {
  Simulator sim;
  // 8000 bits/s -> a 100-byte packet takes 100 ms to serialize.
  SimLink link(sim, {.delay = 0, .rate_bps = 8000});
  std::vector<TimeUs> deliveries;
  link.set_deliver([&](std::vector<std::uint8_t>) { deliveries.push_back(sim.now()); });
  link.send(std::vector<std::uint8_t>(100));
  link.send(std::vector<std::uint8_t>(100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_ms(100));
  EXPECT_EQ(deliveries[1], from_ms(200));
}

TEST(SimLink, JitterNeverReorders) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(5), .jitter = from_ms(10), .seed = 3});
  std::vector<int> received;
  link.set_deliver([&](std::vector<std::uint8_t> data) { received.push_back(data[0]); });
  for (int i = 0; i < 50; ++i) {
    sim.at(i * 100, [&link, i] { link.send({static_cast<std::uint8_t>(i)}); });
  }
  sim.run();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(SimLink, LossDelaysButStillDelivers) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(10), .loss = 0.5, .seed = 17});
  int received = 0;
  link.set_deliver([&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 100; ++i) {
    sim.at(i * from_ms(50), [&link] { link.send({0}); });
  }
  sim.run();
  EXPECT_EQ(received, 100);
  EXPECT_GT(link.packets_retransmitted(), 20u);
  EXPECT_LT(link.packets_retransmitted(), 80u);
}

TEST(SimLink, RuntimeDelayChangeAppliesToNewPackets) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(1)});
  std::vector<TimeUs> deliveries;
  link.set_deliver([&](std::vector<std::uint8_t>) { deliveries.push_back(sim.now()); });
  link.send({0});
  sim.at(from_ms(2), [&] {
    link.set_delay(from_ms(30));
    link.send({1});
  });
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_ms(1));
  EXPECT_EQ(deliveries[1], from_ms(32));
}

TEST(SimLink, CountsTraffic) {
  Simulator sim;
  SimLink link(sim, {});
  link.set_deliver([](std::vector<std::uint8_t>) {});
  link.send(std::vector<std::uint8_t>(10));
  link.send(std::vector<std::uint8_t>(20));
  sim.run();
  EXPECT_EQ(link.packets_sent(), 2u);
  EXPECT_EQ(link.bytes_sent(), 30u);
}

// ----------------------------------------------------- partition semantics --

TEST(SimLink, PartitionDropsOutright) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(5)});
  int received = 0;
  link.set_deliver([&](std::vector<std::uint8_t>) { ++received; });
  link.set_down(true);
  EXPECT_TRUE(link.down());
  link.send({1});
  link.send({2});
  sim.run();
  // Dropped at send time: no delivery, no retransmission, not counted as
  // sent traffic.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.packets_dropped(), 2u);
  EXPECT_EQ(link.packets_retransmitted(), 0u);
  EXPECT_EQ(link.packets_sent(), 0u);
  EXPECT_EQ(link.bytes_sent(), 0u);
}

TEST(SimLink, CountersAccumulateAcrossDownUpToggles) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(1)});
  std::vector<int> received;
  link.set_deliver([&](std::vector<std::uint8_t> data) { received.push_back(data[0]); });

  sim.at(0, [&] { link.send({0}); });
  sim.at(from_ms(10), [&] {
    link.set_down(true);
    link.send({1});  // dropped
  });
  sim.at(from_ms(20), [&] {
    link.set_down(false);
    link.send({2});
  });
  sim.at(from_ms(30), [&] {
    link.set_down(true);
    link.send({3});  // dropped
    link.send({4});  // dropped
  });
  sim.at(from_ms(40), [&] {
    link.set_down(false);
    link.send({5});
  });
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(link.packets_dropped(), 3u);
  EXPECT_EQ(link.packets_sent(), 3u);
}

TEST(SimLink, InFlightPacketSurvivesPartitionStart) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(10)});
  int received = 0;
  link.set_deliver([&](std::vector<std::uint8_t>) { ++received; });
  // The packet is on the wire when the partition starts: it was already
  // past the failure point and still arrives (like a packet beyond the cut
  // in a real network).
  sim.at(0, [&] { link.send({1}); });
  sim.at(from_ms(1), [&] { link.set_down(true); });
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(link.packets_dropped(), 0u);
}

TEST(SimLink, JitterAndLossTogetherPreserveFifoOrder) {
  Simulator sim;
  // Retransmission pushes a lost packet a full RTT back while jitter
  // scatters its neighbors; FIFO delivery must still hold.
  SimLink link(sim, {.delay = from_ms(5), .jitter = from_ms(4), .loss = 0.3, .seed = 99});
  std::vector<int> received;
  link.set_deliver([&](std::vector<std::uint8_t> data) { received.push_back(data[0]); });
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    sim.at(i * from_ms(2), [&link, i] { link.send({static_cast<std::uint8_t>(i % 256)}); });
  }
  sim.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i % 256) << "reordered at " << i;
  }
  EXPECT_GT(link.packets_retransmitted(), 0u);
  EXPECT_EQ(link.packets_dropped(), 0u);
}

TEST(SimLink, LossDuringPartitionWindowDoesNotRetransmit) {
  Simulator sim;
  SimLink link(sim, {.delay = from_ms(5), .loss = 0.9, .seed = 7});
  int received = 0;
  link.set_deliver([&](std::vector<std::uint8_t>) { ++received; });
  link.set_down(true);
  for (int i = 0; i < 50; ++i) link.send({0});
  link.set_down(false);
  sim.run();
  // While the path is gone there is no TCP-style recovery: packets are
  // dropped before the loss model ever sees them.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.packets_dropped(), 50u);
  EXPECT_EQ(link.packets_retransmitted(), 0u);
}

}  // namespace
}  // namespace flexran::sim
