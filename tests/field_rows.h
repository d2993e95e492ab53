// Test helpers driven by the wire field tables (proto/fields.h): read a
// row's wire values and set a row to something other than its default,
// for any row of any table.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "proto/fields.h"

namespace flexran::proto::testing {

/// The values a row puts on the wire, as Field::visit reports them.
template <typename Row>
std::vector<std::uint64_t> row_values(const typename Row::record& record) {
  std::vector<std::uint64_t> out;
  const auto add = [&](std::uint64_t value) { out.push_back(value); };
  Row::visit(record, add);
  return out;
}

template <typename Row>
void change_row(typename Row::record& record);

/// Moves one element of `Row` off its current value; a nested record
/// changes its field 1.
template <typename Row, typename E>
void change(E& v) {
  if constexpr (Row::converted) {
    Row::conv::from_wire(v, Row::wire(v) + 1);
  } else if constexpr (std::is_same_v<E, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<E>) {
    v = static_cast<E>(static_cast<std::underlying_type_t<E>>(v) + 1);
  } else if constexpr (std::is_arithmetic_v<E>) {
    v = static_cast<E>(v + 3);
  } else if constexpr (std::is_same_v<E, std::string>) {
    v += "x";
  } else if constexpr (std::is_same_v<E, std::vector<std::uint8_t>>) {
    v.push_back(7);
  } else {
    table_t<E>::each([&]<typename Inner>() {
      if constexpr (Inner::number == 1) change_row<Inner>(v);
    });
  }
}

/// Moves one row off its value: a repeated row gains a changed element.
template <typename Row>
void change_row(typename Row::record& record) {
  auto& v = record.*Row::member;
  if constexpr (Row::repeated) {
    v.emplace_back();
    change<Row>(v.back());
  } else if constexpr (Row::fixed_array) {
    change<Row>(v[0]);
  } else {
    change<Row>(v);
  }
}

}  // namespace flexran::proto::testing
