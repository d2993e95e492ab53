// RAN Information Base (paper Sec. 4.3.3): all statistics and configuration
// of the underlying network entities, structured as a forest -- roots are
// agents, second level the cells of each agent, leaves the UEs. Kept
// entirely in memory. Only the RIB Updater writes it (single-writer
// discipline); applications read frozen versions of it. As in the paper's
// implementation, no high-level abstraction is layered on top: raw reports
// are exposed to the northbound API.
//
// This header holds the node types. The table of agents itself -- one
// copy-on-write slot table that the updater writes through a write barrier
// and each publish freezes -- is Rib, with its frozen versions RibSnapshot
// (rib_snapshot.h).
//
// Each agent is stored flat: its cells in one id-sorted vector, its UEs in
// one RNTI-sorted row vector (each row names its serving cell), and the
// per-UE hot statistics as columns row-aligned with the UE rows. Cloning an
// agent, as the first write to it after a publish does, is a fixed handful
// of allocations however many UEs it serves, and none when the clone is
// copy-assigned into a retired node of the same shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lte/types.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace flexran::ctrl {

/// Master-local identifier for a connected agent.
using AgentId = std::uint32_t;

/// Control-channel session state of an agent, as the master sees it
/// (docs/fault_tolerance.md): up -> stale (silent too long) -> down
/// (transport lost or silent past the disconnect timeout) -> resyncing
/// (heard again; configuration being re-fetched) -> up.
enum class SessionState : std::uint8_t { up, stale, down, resyncing };

struct UeNode {
  lte::Rnti rnti = lte::kInvalidRnti;
  /// Serving cell, as the UE's configuration or attach event names it. A
  /// UE first seen in a stats report takes the agent's first known cell
  /// (0 when none is known yet) until one of those arrives.
  lte::CellId cell = 0;
  lte::UeConfig config;
  proto::UeStatsReport stats;
  sim::TimeUs last_update = 0;
  /// Smoothed CQI (exponential moving average) -- what the MEC app uses.
  util::Ewma cqi_avg{0.15};
};

struct CellNode {
  lte::CellId id = 0;
  lte::CellConfig config;
  proto::CellStatsReport stats;
  sim::TimeUs last_update = 0;
};

/// Structure-of-arrays copy of the per-UE hot statistics
/// (docs/wire_fastpath.md), row-aligned with AgentNode::ues: row i is the
/// UE ues[i], so `rnti` is sorted and doubles as the row index. The RIB
/// updater writes one row per stats report; periodic apps (monitoring,
/// fleet views) scan contiguous columns instead of whole UE rows.
struct UeHotColumns {
  std::vector<lte::Rnti> rnti;
  std::vector<std::uint8_t> wb_cqi;
  std::vector<std::uint32_t> rlc_queue_bytes;
  std::vector<std::uint64_t> dl_bytes_delivered;

  std::size_t size() const { return rnti.size(); }
  /// Inserts a zeroed row for `r` at `row`.
  void insert(std::size_t row, lte::Rnti r);
  void erase(std::size_t row);
  void write(std::size_t row, const proto::UeStatsReport& report);
  std::size_t approx_bytes() const;
};

struct AgentNode {
  AgentId id = 0;
  lte::EnbId enb_id = 0;
  std::string name;
  std::vector<std::string> capabilities;
  /// Cells in ascending id.
  std::vector<CellNode> cells;
  /// UEs of every cell, one row per RNTI in ascending RNTI.
  std::vector<UeNode> ues;
  /// Hot statistics of `ues`, row for row.
  UeHotColumns hot;

  /// Null when absent.
  const CellNode* find_cell(lte::CellId id) const;
  /// The cell `id`, inserted in id order on first sight.
  CellNode& cell(lte::CellId id);
  /// Null when absent.
  const UeNode* find_ue(lte::Rnti rnti) const;
  /// Row index of `rnti` in `ues` and `hot`, inserting an empty row on
  /// first sight (which moves the rows after it). Row `hint` is checked
  /// before searching: a caller walking RNTIs in ascending order passes
  /// the row after the previous one and skips the search.
  std::size_t upsert_ue(lte::Rnti rnti, std::size_t hint = 0);
  /// Removes the row of `rnti` (no-op when absent).
  void erase_ue(lte::Rnti rnti);
  /// Approximate heap and inline size of this node (Fig. 8 memory series).
  std::size_t approx_bytes() const;

  /// Latest subframe the agent reported (sync ticks / stats replies) and
  /// when it arrived -- the master's view of agent time, which trails real
  /// agent time by the one-way control latency (paper Sec. 5.3).
  std::int64_t last_subframe = 0;
  sim::TimeUs last_subframe_at = 0;
  /// Smoothed RTT estimate from echo exchanges.
  double rtt_estimate_us = 0.0;

  /// Liveness: when the last message of any kind arrived (the master's
  /// timeout sweep drives the session state from this; see
  /// MasterConfig::agent_timeout_us).
  sim::TimeUs last_heard = 0;

  /// Full session lifecycle -- the single source of truth for liveness.
  SessionState state = SessionState::up;
  /// The master currently considers the agent unreachable. Well-behaved
  /// apps skip stale agents (their fallback VSFs have control).
  bool is_stale() const { return state == SessionState::stale || state == SessionState::down; }
  /// Session epoch learned from the agent's hello; messages carrying an
  /// older epoch are fenced by the RIB updater.
  std::uint32_t epoch = 0;
  /// How many times this agent re-established its session.
  std::uint32_t reconnects = 0;
};

}  // namespace flexran::ctrl
