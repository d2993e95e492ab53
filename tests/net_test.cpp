#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "net/framing.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"

namespace flexran::net {
namespace {

// ----------------------------------------------------------------- framing --

/// `payload` framed into a fresh vector.
std::vector<std::uint8_t> frame_of(std::span<const std::uint8_t> payload) {
  util::ByteBuffer out;
  frame_into(out, payload);
  return out.take();
}

TEST(Framing, FrameAddsHeader) {
  std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto framed = frame_of(payload);
  ASSERT_EQ(framed.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(framed[0], 3);  // little-endian length
  EXPECT_EQ(framed[4], 1);
}

TEST(Framing, AssemblerHandlesExactFrames) {
  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> frames;
  auto sink = [&](std::span<const std::uint8_t> f) { frames.emplace_back(f.begin(), f.end()); };
  ASSERT_TRUE(assembler.feed(frame_of(std::vector<std::uint8_t>{7, 8}), sink).ok());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], (std::vector<std::uint8_t>{7, 8}));
}

TEST(Framing, AssemblerHandlesByteAtATimeDelivery) {
  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> frames;
  auto sink = [&](std::span<const std::uint8_t> f) { frames.emplace_back(f.begin(), f.end()); };
  const auto framed = frame_of(std::vector<std::uint8_t>{9, 10, 11});
  for (auto byte : framed) {
    ASSERT_TRUE(assembler.feed(std::span(&byte, 1), sink).ok());
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], (std::vector<std::uint8_t>{9, 10, 11}));
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(Framing, AssemblerHandlesCoalescedFrames) {
  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> frames;
  auto sink = [&](std::span<const std::uint8_t> f) { frames.emplace_back(f.begin(), f.end()); };
  auto combined = frame_of(std::vector<std::uint8_t>{1});
  const auto second = frame_of(std::vector<std::uint8_t>{2, 3});
  combined.insert(combined.end(), second.begin(), second.end());
  ASSERT_TRUE(assembler.feed(combined, sink).ok());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1], (std::vector<std::uint8_t>{2, 3}));
}

TEST(Framing, EmptyPayloadFrame) {
  FrameAssembler assembler;
  int count = 0;
  auto sink = [&](std::span<const std::uint8_t> f) {
    EXPECT_TRUE(f.empty());
    ++count;
  };
  ASSERT_TRUE(assembler.feed(frame_of({}), sink).ok());
  EXPECT_EQ(count, 1);
}

TEST(Framing, MaxFrameBoundary) {
  FrameAssembler assembler;
  int frames = 0;
  auto sink = [&](std::span<const std::uint8_t> f) {
    EXPECT_EQ(f.size(), kMaxFrameBytes);
    ++frames;
  };
  // Exactly kMaxFrameBytes is accepted...
  ASSERT_TRUE(
      assembler.feed(frame_of(std::vector<std::uint8_t>(kMaxFrameBytes)), sink).ok());
  EXPECT_EQ(frames, 1);
  // ...one byte more is rejected.
  FrameAssembler assembler2;
  util::ByteBuffer oversized;
  oversized.write_u32(static_cast<std::uint32_t>(kMaxFrameBytes + 1));
  EXPECT_FALSE(assembler2.feed(oversized.contents(), sink).ok());
}

TEST(Framing, OversizedLengthRejected) {
  FrameAssembler assembler;
  util::ByteBuffer bad;
  bad.write_u32(0x7fffffff);
  EXPECT_FALSE(assembler.feed(bad.contents(), [](std::span<const std::uint8_t>) {}).ok());
}

TEST(Framing, DripFeedLargeFrameIsNotQuadratic) {
  // S1 regression guard: feeding a 64 KiB frame one byte at a time used to
  // rewind via an O(consumed) erase per feed (quadratic overall). With
  // seek() + amortized compact() the whole drip completes instantly and
  // still yields exactly one intact frame.
  constexpr std::size_t kPayloadBytes = 64 * 1024;
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131);
  }
  const auto framed = frame_of(payload);

  FrameAssembler assembler;
  std::vector<std::uint8_t> received;
  int frames = 0;
  auto sink = [&](std::span<const std::uint8_t> f) {
    received.assign(f.begin(), f.end());
    ++frames;
  };
  for (auto byte : framed) {
    ASSERT_TRUE(assembler.feed(std::span(&byte, 1), sink).ok());
  }
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(Framing, ManySmallFramesPerFeedAreBatched) {
  // One feed carrying many coalesced frames must deliver them all in a
  // single drain pass, in order, leaving nothing buffered.
  constexpr int kFrames = 1000;
  util::ByteBuffer combined;
  for (int i = 0; i < kFrames; ++i) {
    const std::uint8_t byte = static_cast<std::uint8_t>(i);
    frame_into(combined, std::span(&byte, 1));
  }
  FrameAssembler assembler;
  int count = 0;
  bool in_order = true;
  auto sink = [&](std::span<const std::uint8_t> f) {
    if (f.size() != 1 || f[0] != static_cast<std::uint8_t>(count)) in_order = false;
    ++count;
  };
  ASSERT_TRUE(assembler.feed(combined.contents(), sink).ok());
  EXPECT_EQ(count, kFrames);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(Framing, OversizedFramePoisonsAssemblerUntilReset) {
  // S2: after an oversized length the assembler must fail deterministically
  // -- same error on every subsequent feed, no partial consumption -- until
  // its owner replaces it with a fresh one.
  FrameAssembler assembler;
  int delivered = 0;
  auto sink = [&](std::span<const std::uint8_t>) { ++delivered; };

  // A valid frame followed by a poisoned header in the same feed: the valid
  // frame is delivered, then the feed errors.
  util::ByteBuffer stream;
  frame_into(stream, std::vector<std::uint8_t>{1, 2, 3});
  stream.write_u32(static_cast<std::uint32_t>(kMaxFrameBytes + 1));
  EXPECT_FALSE(assembler.feed(stream.contents(), sink).ok());
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(assembler.poisoned());

  // Even well-formed traffic is rejected now: the stream position is not
  // trustworthy after a corrupt header.
  const auto good = frame_of(std::vector<std::uint8_t>{4, 5});
  EXPECT_FALSE(assembler.feed(good, sink).ok());
  EXPECT_FALSE(assembler.feed(good, sink).ok());
  EXPECT_EQ(delivered, 1);

  // A fresh assembler starts a clean stream.
  assembler = FrameAssembler{};
  EXPECT_FALSE(assembler.poisoned());
  EXPECT_EQ(assembler.buffered(), 0u);
  ASSERT_TRUE(assembler.feed(good, sink).ok());
  EXPECT_EQ(delivered, 2);
}

TEST(Framing, EverySplitPointMatchesTheWholeFeed) {
  // Frames of 0, 3, 1 and 6 bytes, then an oversized header and two more
  // bytes. Fed in three pieces at every pair of split points, a piece
  // starts either on a frame boundary (frames handed out of the fed bytes)
  // or inside a buffered partial frame: both give the same frames, and the
  // feed that completes the oversized header poisons the assembler with
  // everything from that header to the end of its piece buffered.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      {}, {1, 2, 3}, {4}, {5, 6, 7, 8, 9, 10}};
  util::ByteBuffer stream;
  for (const auto& payload : payloads) frame_into(stream, payload);
  const std::size_t oversized_at = stream.size();
  stream.write_u32(static_cast<std::uint32_t>(kMaxFrameBytes + 1));
  stream.write_u8(0xee);
  stream.write_u8(0xff);
  const auto bytes = stream.contents();
  const std::size_t poisoned_by = oversized_at + kFrameHeaderBytes;

  for (std::size_t i = 0; i <= bytes.size(); ++i) {
    for (std::size_t j = i; j <= bytes.size(); ++j) {
      SCOPED_TRACE("split at " + std::to_string(i) + " and " + std::to_string(j));
      FrameAssembler assembler;
      std::vector<std::vector<std::uint8_t>> frames;
      auto sink = [&](std::span<const std::uint8_t> f) { frames.emplace_back(f.begin(), f.end()); };
      const std::size_t ends[] = {i, j, bytes.size()};
      std::size_t begin = 0;
      for (const std::size_t end : ends) {
        const bool ok = assembler.feed(bytes.subspan(begin, end - begin), sink).ok();
        EXPECT_EQ(ok, end < poisoned_by && begin < poisoned_by) << "piece ending at " << end;
        if (end < poisoned_by) {
          // Whole frames out, the partial tail buffered.
          std::size_t consumed = 0;
          for (const auto& payload : payloads) {
            if (consumed + kFrameHeaderBytes + payload.size() > end) break;
            consumed += kFrameHeaderBytes + payload.size();
          }
          EXPECT_EQ(assembler.buffered(), end - consumed) << "piece ending at " << end;
          EXPECT_FALSE(assembler.poisoned());
        }
        begin = end;
      }
      EXPECT_EQ(frames, payloads);
      EXPECT_TRUE(assembler.poisoned());
      // The poisoning piece is the first one ending at or past the header.
      const std::size_t poisoning_end =
          i >= poisoned_by ? i : (j >= poisoned_by ? j : bytes.size());
      EXPECT_EQ(assembler.buffered(), poisoning_end - oversized_at);
    }
  }
}

// ----------------------------------------------------------- sim transport --

TEST(SimTransport, RoundTripWithLatency) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator, {.delay = sim::from_ms(5)});
  std::vector<std::uint8_t> received;
  sim::TimeUs received_at = -1;
  pair.b->set_receive_callback([&](std::span<const std::uint8_t> msg) {
    received.assign(msg.begin(), msg.end());
    received_at = simulator.now();
  });
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{1, 2, 3}).ok());
  simulator.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(received_at, sim::from_ms(5));
}

TEST(SimTransport, BidirectionalAndAsymmetric) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator, {.delay = sim::from_ms(1)},
                                      {.delay = sim::from_ms(20)});
  sim::TimeUs a_to_b = -1;
  sim::TimeUs b_to_a = -1;
  pair.b->set_receive_callback([&](std::span<const std::uint8_t>) { a_to_b = simulator.now(); });
  pair.a->set_receive_callback([&](std::span<const std::uint8_t>) { b_to_a = simulator.now(); });
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{1}).ok());
  ASSERT_TRUE(pair.b->send(std::vector<std::uint8_t>{2}).ok());
  simulator.run();
  EXPECT_EQ(a_to_b, sim::from_ms(1));
  EXPECT_EQ(b_to_a, sim::from_ms(20));
}

TEST(SimTransport, CountsFramedBytes) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator);
  pair.b->set_receive_callback([](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>(10)).ok());
  simulator.run();
  EXPECT_EQ(pair.a->messages_sent(), 1u);
  EXPECT_EQ(pair.a->bytes_sent(), 10u + kFrameHeaderBytes);
}

TEST(SimTransport, ManyMessagesPreserveOrder) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator, {.delay = sim::from_ms(2), .jitter = sim::from_ms(3), .seed = 5});
  std::vector<std::uint8_t> order;
  pair.b->set_receive_callback(
      [&](std::span<const std::uint8_t> msg) { order.push_back(msg.front()); });
  for (std::uint8_t i = 0; i < 100; ++i) {
    simulator.at(i * 137, [&pair, i] {
      ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{i}).ok());
    });
  }
  simulator.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimTransport, RuntimeDelayChange) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator);
  std::vector<sim::TimeUs> arrivals;
  pair.b->set_receive_callback([&](std::span<const std::uint8_t>) { arrivals.push_back(simulator.now()); });
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{0}).ok());
  simulator.at(sim::from_ms(10), [&] {
    pair.a->set_delay(sim::from_ms(25));
    ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{1}).ok());
  });
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 0);
  EXPECT_EQ(arrivals[1], sim::from_ms(35));
}

TEST(SimTransport, InjectDisconnectFiresCallback) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator);
  int disconnects = 0;
  std::string reason;
  pair.b->set_disconnect_callback([&](util::Error error) {
    reason = error.message;
    ++disconnects;
  });
  pair.b->inject_disconnect(util::Error::transport_failure("injected peer reset"));
  EXPECT_EQ(disconnects, 1);
  EXPECT_EQ(reason, "injected peer reset");
}

TEST(SimTransport, CorruptedFrameFiresDisconnectCallback) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator);
  int received = 0;
  int disconnects = 0;
  pair.b->set_receive_callback([&](std::span<const std::uint8_t>) { ++received; });
  pair.b->set_disconnect_callback([&](util::Error) { ++disconnects; });

  pair.b->corrupt_next(1);
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{1, 2, 3}).ok());
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{4, 5}).ok());
  simulator.run();
  // The corrupted frame reaches the assembler but its payload is mangled;
  // frame boundaries survive, so the next frame still arrives.
  EXPECT_EQ(pair.b->frames_corrupted(), 1u);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(disconnects, 0);
}

TEST(SimTransport, ReorderShufflesHeldFramesDeterministically) {
  // Two identical runs: the shuffle must be a fixed permutation of the
  // held frames (seeded, not wall-clock random), covering all of them.
  auto run_once = [](std::vector<std::uint8_t>& order) {
    sim::Simulator simulator;
    auto pair = make_sim_transport_pair(simulator);
    pair.b->set_receive_callback(
        [&order](std::span<const std::uint8_t> msg) { order.push_back(msg.front()); });
    pair.b->reorder_next(4, /*seed=*/42);
    for (std::uint8_t i = 0; i < 6; ++i) {
      simulator.at(i * 100, [&pair, i] {
        ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{i}).ok());
      });
    }
    simulator.run();
    EXPECT_EQ(pair.b->frames_reordered(), 4u);
  };
  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second;
  run_once(first);
  run_once(second);
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first, second);
  // The first four frames were held and released together; every frame
  // arrives exactly once, and the ones past the hold stay in order.
  std::vector<std::uint8_t> head(first.begin(), first.begin() + 4);
  std::sort(head.begin(), head.end());
  EXPECT_EQ(head, (std::vector<std::uint8_t>{0, 1, 2, 3}));
  EXPECT_EQ(first[4], 4);
  EXPECT_EQ(first[5], 5);
  // The seeded shuffle actually moved something (locked permutation).
  EXPECT_NE((std::vector<std::uint8_t>(first.begin(), first.begin() + 4)),
            (std::vector<std::uint8_t>{0, 1, 2, 3}));
}

TEST(SimTransport, ReorderFlushReleasesAPartialHold) {
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator);
  std::vector<std::uint8_t> order;
  pair.b->set_receive_callback(
      [&order](std::span<const std::uint8_t> msg) { order.push_back(msg.front()); });
  pair.b->reorder_next(5, /*seed=*/7);
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{1}).ok());
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{2}).ok());
  simulator.run();
  // Fewer frames arrived than the hold asked for: nothing delivered yet.
  EXPECT_TRUE(order.empty());
  // The deadline flush releases what is buffered and disarms the hold.
  pair.b->reorder_flush();
  ASSERT_EQ(order.size(), 2u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(pair.b->frames_reordered(), 2u);
  // Subsequent traffic flows straight through.
  ASSERT_TRUE(pair.a->send(std::vector<std::uint8_t>{3}).ok());
  simulator.run();
  EXPECT_EQ(order.back(), 3);
}

TEST(SimTransport, FaultsOnRecycledBuffersDeliverTheBytesSent) {
  // Frames held by a reorder fault leave the simulator's frame pool while
  // traffic the other way recycles its buffers; duplicated and corrupted
  // frames act on pooled buffers in place. Payloads differ in length and
  // content, so a buffer handed out twice, or stale bytes left in a
  // recycled one, would show in what arrives.
  sim::Simulator simulator;
  auto pair = make_sim_transport_pair(simulator, {.delay = sim::from_ms(1)});
  const auto payload = [](int i) {
    std::vector<std::uint8_t> bytes(1 + static_cast<std::size_t>(i * 7 % 23));
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      bytes[k] = static_cast<std::uint8_t>((i * 31 + static_cast<int>(k)) & 0x7f);
    }
    return bytes;
  };
  std::vector<std::vector<std::uint8_t>> at_a;
  std::vector<std::vector<std::uint8_t>> at_b;
  pair.a->set_receive_callback(
      [&](std::span<const std::uint8_t> msg) { at_a.emplace_back(msg.begin(), msg.end()); });
  pair.b->set_receive_callback(
      [&](std::span<const std::uint8_t> msg) { at_b.emplace_back(msg.begin(), msg.end()); });

  pair.b->reorder_next(4, /*seed=*/3);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.a->send(payload(i)).ok());
  simulator.run();
  EXPECT_TRUE(at_b.empty());
  // Three held frames, then traffic b -> a over many TTIs reuses the pool.
  for (int i = 0; i < 40; ++i) {
    simulator.at(simulator.now() + i * sim::kTtiUs,
                 [&pair, &payload, i] { ASSERT_TRUE(pair.b->send(payload(100 + i)).ok()); });
  }
  simulator.run();
  ASSERT_EQ(at_a.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(at_a[static_cast<std::size_t>(i)], payload(100 + i));
  EXPECT_GT(simulator.frame_pool().spare(), 0u);
  pair.b->reorder_flush();
  ASSERT_EQ(at_b.size(), 3u);
  std::vector<std::vector<std::uint8_t>> held = at_b;
  std::sort(held.begin(), held.end());
  std::vector<std::vector<std::uint8_t>> sent = {payload(0), payload(1), payload(2)};
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(held, sent);

  at_b.clear();
  pair.b->duplicate_next(1);
  ASSERT_TRUE(pair.a->send(payload(3)).ok());
  ASSERT_TRUE(pair.a->send(payload(4)).ok());
  simulator.run();
  pair.b->corrupt_next(1);
  ASSERT_TRUE(pair.a->send(payload(5)).ok());
  ASSERT_TRUE(pair.a->send(payload(6)).ok());
  simulator.run();
  auto corrupted = payload(5);
  for (auto& byte : corrupted) byte |= 0x80;
  EXPECT_EQ(at_b, (std::vector<std::vector<std::uint8_t>>{payload(3), payload(3), payload(4),
                                                          corrupted, payload(6)}));
  EXPECT_EQ(pair.b->frames_duplicated(), 1u);
  EXPECT_EQ(pair.b->frames_corrupted(), 1u);
}

// ----------------------------------------------------------- tcp transport --

TEST(TcpTransport, ConnectSendReceive) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok()) << listener.error().message;
  const auto port = (*listener)->port();

  std::atomic<int> server_received{0};
  std::vector<std::uint8_t> last_server_msg;
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
    server_side->set_receive_callback([&](std::span<const std::uint8_t> msg) {
      last_server_msg.assign(msg.begin(), msg.end());
      server_received.fetch_add(1);
    });
    server_side->start();
  });

  auto client = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.error().message;
  server.join();

  std::atomic<int> client_received{0};
  (*client)->set_receive_callback([&](std::span<const std::uint8_t>) { client_received.fetch_add(1); });
  (*client)->start();

  ASSERT_TRUE((*client)->send(std::vector<std::uint8_t>{42, 43}).ok());
  for (int i = 0; i < 200 && server_received.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_received.load(), 1);
  EXPECT_EQ(last_server_msg, (std::vector<std::uint8_t>{42, 43}));

  // Reply path.
  ASSERT_TRUE(server_side->send(std::vector<std::uint8_t>{7}).ok());
  for (int i = 0; i < 200 && client_received.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client_received.load(), 1);
  EXPECT_EQ((*client)->messages_sent(), 1u);
  EXPECT_EQ((*client)->bytes_sent(), 2u + kFrameHeaderBytes);

  (*client)->close();
  server_side->close();
}

TEST(TcpTransport, ManyMessagesSurviveSegmentation) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  const auto port = (*listener)->port();

  std::atomic<int> received{0};
  std::atomic<bool> in_order{true};
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
    int expected = 0;
    server_side->set_receive_callback([&, expected](std::span<const std::uint8_t> msg) mutable {
      if (msg.size() != 300 || msg[0] != static_cast<std::uint8_t>(expected % 256)) {
        in_order.store(false);
      }
      ++expected;
      received.fetch_add(1);
    });
    server_side->start();
  });

  auto client = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  server.join();

  const int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    std::vector<std::uint8_t> msg(300, static_cast<std::uint8_t>(i % 256));
    ASSERT_TRUE((*client)->send(msg).ok());
  }
  for (int i = 0; i < 400 && received.load() < kCount; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), kCount);
  EXPECT_TRUE(in_order.load());

  (*client)->close();
  server_side->close();
}

TEST(TcpTransport, PeerCloseFiresDisconnectCallback) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
    server_side->start();
  });
  auto client = TcpTransport::connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  server.join();

  std::atomic<int> disconnects{0};
  std::string reason;
  (*client)->set_disconnect_callback([&](util::Error error) {
    reason = error.message;
    disconnects.fetch_add(1);
  });
  (*client)->set_receive_callback([](std::span<const std::uint8_t>) {});
  (*client)->start();

  server_side->close();  // orderly peer shutdown -> recv() == 0 at the client
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 1);
  EXPECT_NE(reason.find("peer closed"), std::string::npos) << reason;
  (*client)->close();
}

TEST(TcpTransport, LocalCloseDoesNotFireDisconnectCallback) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
  });
  auto client = TcpTransport::connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  server.join();

  std::atomic<int> disconnects{0};
  (*client)->set_disconnect_callback([&](util::Error) { disconnects.fetch_add(1); });
  (*client)->set_receive_callback([](std::span<const std::uint8_t>) {});
  (*client)->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (*client)->close();  // deliberate local teardown, not a failure
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(disconnects.load(), 0);
  server_side->close();
}

TEST(TcpTransport, CorruptFrameLengthFiresDisconnectCallback) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
  });

  // A raw socket peer lets us write a length prefix far beyond
  // kMaxFrameBytes -- a corrupt stream no framed sender would produce.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*listener)->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  server.join();

  std::atomic<int> disconnects{0};
  std::string reason;
  server_side->set_disconnect_callback([&](util::Error error) {
    reason = error.message;
    disconnects.fetch_add(1);
  });
  server_side->set_receive_callback([](std::span<const std::uint8_t>) {});
  server_side->start();

  const std::uint8_t bogus_header[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB frame
  ASSERT_EQ(::send(raw, bogus_header, sizeof(bogus_header), 0), 4);
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 1);
  EXPECT_FALSE(reason.empty());
  ::close(raw);
  server_side->close();
}

TEST(TcpTransport, SendAfterCloseFails) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<TcpTransport> server_side;
  std::thread server([&] {
    auto accepted = (*listener)->accept();
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(*accepted);
  });
  auto client = TcpTransport::connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  server.join();
  (*client)->close();
  EXPECT_FALSE((*client)->send(std::vector<std::uint8_t>{1}).ok());
  server_side->close();
}

TEST(TcpTransport, ConnectToClosedPortFails) {
  // Grab an ephemeral port and close the listener so nothing accepts.
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  const auto port = (*listener)->port();
  (*listener)->close();
  auto client = TcpTransport::connect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
}

}  // namespace
}  // namespace flexran::net
