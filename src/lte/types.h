// Core LTE identifiers and configuration types shared by the data plane, the
// agent API, and the FlexRAN protocol. Matches the paper's experimental
// setup defaults: FDD, transmission mode 1, 10 MHz (50 PRB), band 5.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace flexran::lte {

/// Radio Network Temporary Identifier: identifies a UE within a cell.
using Rnti = std::uint16_t;
constexpr Rnti kInvalidRnti = 0;

using CellId = std::uint32_t;
using EnbId = std::uint32_t;

enum class Duplex : std::uint8_t { fdd = 0, tdd = 1 };

/// Downlink transmission modes (36.213); the paper evaluates TM1 (single
/// antenna port).
enum class TransmissionMode : std::uint8_t {
  tm1_single_antenna = 1,
  tm2_tx_diversity = 2,
  tm3_open_loop_mimo = 3,
  tm4_closed_loop_mimo = 4,
};

enum class Direction : std::uint8_t { downlink = 0, uplink = 1 };

/// LTE channel bandwidths and their PRB counts (36.101 Table 5.6-1).
int prb_count_for_bandwidth_mhz(double mhz);

/// Maximum PRBs in any LTE bandwidth (20 MHz).
constexpr int kMaxPrbs = 100;

/// Number of HARQ processes for FDD.
constexpr int kNumHarqProcesses = 8;

/// Subframes per radio frame.
constexpr int kSubframesPerFrame = 10;

/// Logical channel groups used in buffer status reporting.
constexpr int kNumLcGroups = 4;

/// Logical channel identity (SRB0/1/2 = 0/1/2, DRBs from 3).
using Lcid = std::uint8_t;
constexpr Lcid kSrb0 = 0;
constexpr Lcid kSrb1 = 1;
constexpr Lcid kDefaultDrb = 3;

struct CellConfig {
  CellId cell_id = 0;
  double bandwidth_mhz = 10.0;
  Duplex duplex = Duplex::fdd;
  TransmissionMode tx_mode = TransmissionMode::tm1_single_antenna;
  int band = 5;
  int antenna_ports = 1;
  /// Physical cell identity (0..503).
  int pci = 0;

  int dl_prbs() const { return prb_count_for_bandwidth_mhz(bandwidth_mhz); }
  int ul_prbs() const { return prb_count_for_bandwidth_mhz(bandwidth_mhz); }
};

struct EnbConfig {
  EnbId enb_id = 0;
  std::string name = "enb";
  std::array<CellConfig, 1> cells{};  // the primary cell (PCell)
  /// Optional secondary component carrier for carrier aggregation. Assumed
  /// on a separate frequency (no interference coupling with the PCell
  /// radio environment).
  std::optional<CellConfig> scell;
};

/// UE configuration exposed over the agent API (Table 1 "Configuration").
struct UeConfig {
  Rnti rnti = kInvalidRnti;
  CellId primary_cell = 0;
  TransmissionMode tx_mode = TransmissionMode::tm1_single_antenna;
  /// UE category caps the per-TTI transport block size (cat 4 ~ 150 Mb/s).
  int ue_category = 4;
  bool carrier_aggregation = false;
};

}  // namespace flexran::lte
