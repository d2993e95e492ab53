// Field tables: every wire message and nested record declares each of its
// fields once, as a row {number, &M::member, kind} of a compile-time table
// (`M::Fields`, or TableOf<M> for a record defined outside proto). The
// table expands into the codec -- encode, decode (an in-order pass, then
// the checked loop WireDecoder::fields), reset -- and into a walk over the
// values the wire carries, which the agent's triggered-report fingerprint
// hashes. Adding a field is adding one row (docs/wire_fastpath.md).
//
// The expansion functions are FLEXRAN_EXPAND: always inlined and, being
// gnu_inline, never emitted on their own, so a message's decoder is one
// function with the table's arms folded into it. A nested record's decoder
// is the one exception: it is a function of its own, called from both
// the in-order pass and the checked loop.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "proto/wire.h"
#include "util/result.h"

#define FLEXRAN_EXPAND [[gnu::always_inline, gnu::gnu_inline]] inline

namespace flexran::proto {

/// How a row's value travels.
enum class Kind : std::uint8_t {
  varint,   ///< unsigned or two's-complement integer, enum or bool
  svarint,  ///< signed integer, zigzag
  fixed64,  ///< double
  string,   ///< std::string
  bytes,    ///< std::vector<std::uint8_t>
  message,  ///< a nested record with its own table
};

/// Whether encode writes a row that holds its default value. A repeated
/// row writes one entry per element.
enum class Presence : std::uint8_t { always, unless_default };

/// The memory form is the wire form. A row whose memory form differs names
/// a hand-coded converter instead: `to_wire(member)` returns the integer
/// the wire carries and `from_wire(member, value)` stores one back. A
/// std::array member's converter only has `dropped()`, which counts the
/// entries that arrive past the array's end.
struct Direct {};

/// The table of M: M::Fields, or a specialization for a record that lives
/// outside proto.
template <typename M>
struct TableOf {};
template <typename M>
  requires requires { typename M::Fields; }
struct TableOf<M> {
  using type = typename M::Fields;
};
template <typename M>
using table_t = typename TableOf<M>::type;

namespace fields_detail {
template <typename T>
struct MemberOf;
template <typename C, typename V>
struct MemberOf<V C::*> {
  using record = C;
  using value = V;
};
template <typename T>
concept Vector = std::is_same_v<T, std::vector<typename T::value_type>>;
template <typename T>
concept Array = std::is_same_v<T, std::array<typename T::value_type, std::tuple_size<T>::value>>;
template <auto V>
struct Constant {};
}  // namespace fields_detail

/// Whether a row of kind `K` can carry elements of type `E`, through
/// converter `Conv`. A row that fails this fails the build.
template <Kind K, typename E, typename Conv = Direct>
consteval bool kind_fits() {
  if constexpr (requires(const E& e) { Conv::to_wire(e); }) {
    using Wire = decltype(Conv::to_wire(std::declval<const E&>()));
    return std::is_integral_v<Wire> && (K == Kind::varint || K == Kind::svarint);
  } else if constexpr (K == Kind::varint) {
    return std::is_integral_v<E> || std::is_enum_v<E>;
  } else if constexpr (K == Kind::svarint) {
    return std::is_integral_v<E> && std::is_signed_v<E>;
  } else if constexpr (K == Kind::fixed64) {
    return std::is_same_v<E, double>;
  } else if constexpr (K == Kind::string) {
    return std::is_same_v<E, std::string>;
  } else if constexpr (K == Kind::bytes) {
    return std::is_same_v<E, std::vector<std::uint8_t>>;
  } else {
    return requires { typename table_t<E>; };
  }
}

/// A row's default value: what a default-constructed record holds.
template <typename Row>
inline constexpr typename Row::value kDefault = typename Row::record{}.*Row::member;

/// One row: field `N` carries `Member` as `K`. A std::vector member (bytes
/// aside) is a repeated field; a std::array member a repeated field into a
/// fixed array. `Flag` is the stats_flags bit that selects the row into a
/// UeStatsReport, else 0.
template <int N, auto Member, Kind K, Presence P = Presence::always, std::uint32_t Flag = 0,
          typename Conv = Direct>
struct Field {
  using record = typename fields_detail::MemberOf<decltype(Member)>::record;
  using value = typename fields_detail::MemberOf<decltype(Member)>::value;
  static constexpr int number = N;
  static constexpr Kind kind = K;
  static constexpr auto member = Member;
  static constexpr std::uint32_t flag = Flag;
  using conv = Conv;
  static constexpr bool repeated = fields_detail::Vector<value> && K != Kind::bytes;
  static constexpr bool fixed_array = fields_detail::Array<value>;
  static constexpr bool converted = !std::is_same_v<Conv, Direct> && !fixed_array;
  /// What one wire entry holds (std::array<value, 1> is only there to name `value`).
  using element = typename std::conditional_t<repeated || fixed_array, value,
                                              std::array<value, 1>>::value_type;
  static constexpr WireType wire_type = K == Kind::varint || K == Kind::svarint ? WireType::varint
                                        : K == Kind::fixed64 ? WireType::fixed64
                                                             : WireType::length_delimited;
  static constexpr std::uint8_t tag = static_cast<std::uint8_t>(tag_byte(N, wire_type));
  /// Whether this row stores into `Other` (a member pointer).
  template <auto Other>
  static constexpr bool names =
      std::is_same_v<fields_detail::Constant<Member>, fields_detail::Constant<Other>>;

  static_assert(N >= 1 && N <= 15, "field numbers are 1..15, so every tag is one byte");
  static_assert(kind_fits<K, element, Conv>(), "the row's kind does not fit its member's type");
  static_assert(P == Presence::always || !(repeated || fixed_array || K == Kind::message),
                "only a singular scalar, string or bytes row can be left off the wire");
  static_assert(!fixed_array || wire_type == WireType::varint,
                "a fixed-array row carries varints");

  /// The integer the wire carries for a varint, svarint or fixed64 element.
  FLEXRAN_EXPAND static auto wire(const element& v) {
    if constexpr (converted) {
      return Conv::to_wire(v);
    } else if constexpr (K == Kind::fixed64) {
      return std::bit_cast<std::uint64_t>(v);
    } else if constexpr (K == Kind::svarint) {
      return static_cast<std::int64_t>(v);
    } else {
      return static_cast<std::uint64_t>(v);
    }
  }

  FLEXRAN_EXPAND static void encode_one(WireEncoder& enc, const element& v) {
    if constexpr (K == Kind::varint) {
      enc.field_varint(N, static_cast<std::uint64_t>(wire(v)));
    } else if constexpr (K == Kind::svarint) {
      enc.field_svarint(N, static_cast<std::int64_t>(wire(v)));
    } else if constexpr (K == Kind::fixed64) {
      enc.field_double(N, v);
    } else if constexpr (K == Kind::string) {
      enc.field_string(N, v);
    } else if constexpr (K == Kind::bytes) {
      enc.field_bytes(N, v);
    } else {
      const std::size_t mark = enc.begin_message(N);
      table_t<element>::encode(enc, v);
      enc.end_message(mark);
    }
  }

  FLEXRAN_EXPAND static void encode(WireEncoder& enc, const record& msg) {
    const value& v = msg.*Member;
    if constexpr (repeated || fixed_array) {
      for (const element& e : v) encode_one(enc, e);
    } else {
      if constexpr (P == Presence::unless_default) {
        if constexpr (converted) {
          if (wire(v) == wire(kDefault<Field>)) return;
        } else if constexpr (K == Kind::string || K == Kind::bytes) {
          if (v.empty()) return;
        } else {
          if (v == kDefault<Field>) return;
        }
      }
      encode_one(enc, v);
    }
  }

  /// Stores one varint or svarint element, `raw` as the wire carries it.
  FLEXRAN_EXPAND static void put_one(element& v, std::uint64_t raw) {
    if constexpr (converted && K == Kind::svarint) {
      Conv::from_wire(v, zigzag_decode(raw));
    } else if constexpr (converted) {
      Conv::from_wire(v, raw);
    } else if constexpr (K == Kind::svarint) {
      v = static_cast<element>(zigzag_decode(raw));
    } else {
      v = static_cast<element>(raw);
    }
  }

  /// Reads one string, bytes or fixed64 element.
  FLEXRAN_EXPAND static void read_one(WireDecoder& dec, element& v) {
    if constexpr (K == Kind::bytes) {
      const auto payload = dec.bytes();
      v.assign(payload.begin(), payload.end());
    } else {
      dec.read(v);
    }
  }

  /// Stores one varint or svarint occurrence. `count` is how many this
  /// row has stored so far in the message: a repeated row decodes over the
  /// slots a warm record already holds.
  FLEXRAN_EXPAND static void put(record& msg, std::uint32_t& count, std::uint64_t raw) {
    value& v = msg.*Member;
    if constexpr (repeated) {
      if (count == v.size()) v.emplace_back();
      put_one(v[count++], raw);
    } else if constexpr (fixed_array) {
      if (count < v.size()) {
        put_one(v[count++], raw);
      } else {
        Conv::dropped();
      }
    } else {
      put_one(v, raw);
    }
  }

  /// Decodes one message occurrence from `payload`, the bytes after its
  /// length, `count` as for put(). Each record type has one decoder,
  /// narrowing included, called from both the in-order pass and the
  /// checked loop.
  FLEXRAN_EXPAND static void nested(WireDecoder& dec, std::span<const std::uint8_t> payload,
                                    record& msg, std::uint32_t& count) {
    value& v = msg.*Member;
    element* e = nullptr;
    if constexpr (repeated) {
      if (count == v.size()) v.emplace_back();
      e = &v[count++];
    } else {
      e = &v;
    }
    [](WireDecoder& d, std::span<const std::uint8_t> body, element& record)
        __attribute__((noinline)) {
          d.message(body, record,
                    [](WireDecoder& inner, element& r) __attribute__((always_inline)) {
                      table_t<element>::decode(inner, r);
                    });
        }(dec, payload, *e);
  }

  /// Reads one occurrence through the decoder, `count` as for put().
  FLEXRAN_EXPAND static void read(WireDecoder& dec, record& msg, std::uint32_t& count) {
    if constexpr (wire_type == WireType::varint) {
      const std::uint64_t raw = dec.varint_cold();
      if (fixed_array && !dec.ok()) return;  // a cut entry is not a dropped one
      put(msg, count, raw);
    } else if constexpr (K == Kind::message) {
      nested(dec, dec.bytes(), msg, count);
    } else if constexpr (repeated) {
      value& v = msg.*Member;
      if (count == v.size()) v.emplace_back();
      read_one(dec, v[count++]);
    } else {
      read_one(dec, msg.*Member);
    }
  }

  /// Trims a repeated row to the `count` entries the message carried.
  FLEXRAN_EXPAND static void trim(record& msg, std::uint32_t count) {
    if constexpr (repeated) (msg.*Member).resize(count);
  }

  /// Back to the default; vectors and strings keep their capacity.
  FLEXRAN_EXPAND static void reset(record& msg) {
    value& v = msg.*Member;
    if constexpr (repeated || K == Kind::string || K == Kind::bytes) {
      v.clear();
    } else if constexpr (K == Kind::message) {
      table_t<value>::reset(v);
    } else {
      v = kDefault<Field>;
    }
  }

  /// Calls f(std::uint64_t) with each number the row puts on the wire, at
  /// wire precision: a repeated row's count first, a nested record row by
  /// row. (No table it walks has a string or bytes row.)
  template <typename F>
  FLEXRAN_EXPAND static void visit(const record& msg, F& f) {
    const auto visit_one = [&](const element& v) __attribute__((always_inline)) {
      if constexpr (K == Kind::message) {
        table_t<element>::visit(v, f);
      } else {
        f(static_cast<std::uint64_t>(wire(v)));
      }
    };
    const value& v = msg.*Member;
    if constexpr (repeated || fixed_array) {
      f(v.size());
      for (const element& e : v) visit_one(e);
    } else {
      visit_one(v);
    }
  }
};

/// A row whose memory form differs from its wire form: `Conv` converts.
template <int N, auto Member, Kind K, typename Conv, Presence P = Presence::always,
          std::uint32_t Flag = 0>
using Converted = Field<N, Member, K, P, Flag, Conv>;

/// A message's or record's rows, in wire order.
template <typename... Rows>
struct Table {
  /// Every field number a row names, as a WireDecoder::fields() mask.
  static constexpr std::uint32_t known = ((std::uint32_t{1} << Rows::number) | ...);
  static_assert(std::popcount(known) == sizeof...(Rows), "field numbers are unique");
  /// The decode() bit of the row that stores into `Member`.
  template <auto Member>
  static constexpr std::uint32_t bit =
      ((Rows::template names<Member> ? std::uint32_t{1} << Rows::number : 0u) | ...);

  /// Calls `f.template operator()<Row>()` for every row, in order. A hot
  /// caller marks `f` __attribute__((always_inline)).
  template <typename F>
  FLEXRAN_EXPAND static void each(F&& f) {
    (f.template operator()<Rows>(), ...);
  }
  template <typename M>
  FLEXRAN_EXPAND static void encode(WireEncoder& enc, const M& msg) {
    (Rows::encode(enc, msg), ...);
  }
  template <typename M>
  FLEXRAN_EXPAND static void reset(M& msg) {
    (Rows::reset(msg), ...);
  }
  template <typename M, typename F>
  FLEXRAN_EXPAND static void visit(const M& msg, F& f) {
    (Rows::visit(msg, f), ...);
  }

  /// Decodes the current message into `out`, which may be warm: singular
  /// rows are reset first, repeated rows decode over the slots `out`
  /// already holds and are trimmed to what arrived. Returns the bits of
  /// the rows seen.
  ///
  /// First comes one straight-line pass over the rows in table order,
  /// which is the order encode writes them in. Each row is tested once
  /// against the byte at a local copy of the cursor: a singular row is
  /// read at most once, a repeated or fixed-array row for as long as its
  /// tag repeats. A varint of up to 5 bytes is read on that cursor
  /// (short_varint), a longer or cut one through the decoder. A message
  /// row's length is read on the cursor too and its payload handed to the
  /// record's decoder. String, bytes and fixed64 rows go through the
  /// decoder's reads. A tag mismatch, an error, or a message length that
  /// is long, cut or past the end ends the pass. The checked loop
  /// (WireDecoder::fields) then takes whatever is left: rows out of order
  /// or repeated, unknown fields, other wire types and malformed bytes,
  /// with the same arms.
  template <typename M>
  FLEXRAN_EXPAND static std::uint32_t decode(WireDecoder& dec, M& out) {
    ((Rows::repeated ? void() : Rows::reset(out)), ...);
    std::uint32_t counts[16] = {};  // by field number
    std::uint32_t seen = 0;
    const std::uint8_t* p = dec.cursor();
    const std::uint8_t* const end = dec.end();
    const auto in_order = [&]<typename Row>() __attribute__((always_inline)) {
      while (p != end && *p == Row::tag) {
        if constexpr (Row::wire_type == WireType::varint) {
          const std::uint8_t* value = p + 1;
          std::uint64_t raw = 0;
          if (WireDecoder::short_varint(value, end, raw)) {
            p = value;
          } else {
            dec.take_tag(p);
            raw = dec.varint_cold();
            p = dec.cursor();
            if (!dec.ok()) return false;
          }
          Row::put(out, counts[Row::number], raw);
        } else if constexpr (Row::kind == Kind::message) {
          // A long or cut length, or a payload past the end, is left to
          // the checked loop.
          const std::uint8_t* payload = p + 1;
          std::uint64_t length = 0;
          if (!WireDecoder::short_varint(payload, end, length) ||
              length > static_cast<std::uint64_t>(end - payload)) {
            return false;
          }
          dec.take_tag(p);
          Row::nested(dec, {payload, static_cast<std::size_t>(length)}, out, counts[Row::number]);
          p = dec.cursor();
        } else {
          dec.take_tag(p);
          Row::read(dec, out, counts[Row::number]);
          p = dec.cursor();
        }
        seen |= 1u << Row::number;
        if constexpr (!Row::repeated && !Row::fixed_array) break;
      }
      return true;
    };
    (in_order.template operator()<Rows>() && ...);
    dec.seek(p);
    dec.fields(known, [&](std::uint64_t tag) __attribute__((always_inline)) {
      return ((tag == Rows::tag &&
               (seen |= 1u << Rows::number, Rows::read(dec, out, counts[Rows::number]), true)) ||
              ...);
    });
    if (dec.ok()) (Rows::trim(out, counts[Rows::number]), ...);
    return seen;
  }
};

/// A whole body decoded into a fresh M.
template <typename M>
FLEXRAN_EXPAND util::Result<M> decode_message(std::span<const std::uint8_t> data) {
  M out;
  WireDecoder dec(data);
  table_t<M>::decode(dec, out);
  if (!dec.ok()) return dec.status().error();
  return out;
}

/// A whole body decoded into a warm M (see Table::decode()).
template <typename M>
FLEXRAN_EXPAND util::Status decode_into(std::span<const std::uint8_t> data, M& out) {
  WireDecoder dec(data);
  table_t<M>::decode(dec, out);
  return dec.status();
}

}  // namespace flexran::proto

#undef FLEXRAN_EXPAND
