#include "controller/rib.h"

#include <algorithm>
#include <utility>

namespace flexran::ctrl {

namespace {

template <typename T>
auto at(std::vector<T>& column, std::size_t row) {
  return column.begin() + static_cast<std::ptrdiff_t>(row);
}

/// Row of `rnti` in the sorted `rows`, or where it would be inserted.
std::size_t lower_row(const std::vector<lte::Rnti>& rows, lte::Rnti rnti) {
  return static_cast<std::size_t>(std::lower_bound(rows.begin(), rows.end(), rnti) - rows.begin());
}

bool holds(const std::vector<lte::Rnti>& rows, std::size_t row, lte::Rnti rnti) {
  return row < rows.size() && rows[row] == rnti;
}

template <typename Cells>
auto cell_position(Cells& cells, lte::CellId id) {
  return std::lower_bound(cells.begin(), cells.end(), id,
                          [](const CellNode& cell, lte::CellId key) { return cell.id < key; });
}

}  // namespace

void UeHotColumns::insert(std::size_t row, lte::Rnti r) {
  rnti.insert(at(rnti, row), r);
  wb_cqi.insert(at(wb_cqi, row), 0);
  rlc_queue_bytes.insert(at(rlc_queue_bytes, row), 0);
  dl_bytes_delivered.insert(at(dl_bytes_delivered, row), 0);
}

void UeHotColumns::erase(std::size_t row) {
  rnti.erase(at(rnti, row));
  wb_cqi.erase(at(wb_cqi, row));
  rlc_queue_bytes.erase(at(rlc_queue_bytes, row));
  dl_bytes_delivered.erase(at(dl_bytes_delivered, row));
}

void UeHotColumns::write(std::size_t row, const proto::UeStatsReport& report) {
  wb_cqi[row] = report.wb_cqi;
  rlc_queue_bytes[row] = report.rlc_queue_bytes;
  dl_bytes_delivered[row] = report.dl_bytes_delivered;
}

std::size_t UeHotColumns::approx_bytes() const {
  return rnti.capacity() * sizeof(lte::Rnti) + wb_cqi.capacity() +
         rlc_queue_bytes.capacity() * sizeof(std::uint32_t) +
         dl_bytes_delivered.capacity() * sizeof(std::uint64_t);
}

const CellNode* AgentNode::find_cell(lte::CellId id) const {
  auto it = cell_position(cells, id);
  return it != cells.end() && it->id == id ? &*it : nullptr;
}

CellNode& AgentNode::cell(lte::CellId id) {
  auto it = cell_position(cells, id);
  if (it == cells.end() || it->id != id) {
    it = cells.insert(it, CellNode{});
    it->id = id;
  }
  return *it;
}

const UeNode* AgentNode::find_ue(lte::Rnti rnti) const {
  const std::size_t row = lower_row(hot.rnti, rnti);
  return holds(hot.rnti, row, rnti) ? &ues[row] : nullptr;
}

std::size_t AgentNode::upsert_ue(lte::Rnti rnti, std::size_t hint) {
  if (holds(hot.rnti, hint, rnti)) return hint;
  const std::size_t row = lower_row(hot.rnti, rnti);
  if (!holds(hot.rnti, row, rnti)) {
    ues.insert(at(ues, row), UeNode{})->rnti = rnti;
    hot.insert(row, rnti);
  }
  return row;
}

void AgentNode::erase_ue(lte::Rnti rnti) {
  const std::size_t row = lower_row(hot.rnti, rnti);
  if (!holds(hot.rnti, row, rnti)) return;
  ues.erase(at(ues, row));
  hot.erase(row);
}

std::size_t AgentNode::approx_bytes() const {
  std::size_t bytes = sizeof(AgentNode) + name.capacity() + hot.approx_bytes() +
                      cells.capacity() * sizeof(CellNode) + ues.capacity() * sizeof(UeNode);
  for (const auto& cap : capabilities) bytes += sizeof(std::string) + cap.capacity();
  for (const auto& ue : ues) bytes += ue.stats.rsrp.capacity() * sizeof(proto::RsrpMeasurement);
  return bytes;
}

}  // namespace flexran::ctrl
