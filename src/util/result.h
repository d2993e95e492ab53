// Lightweight expected-like result type used across the FlexRAN codebase for
// recoverable failures (decode errors, missing RIB entries, transport
// failures). Exceptions are reserved for programming errors.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace flexran::util {

/// Error payload: a stable code plus a human-readable message.
struct Error {
  enum class Code {
    invalid_argument,
    not_found,
    decode_failure,
    transport_failure,
    unsupported,
    conflict,
    internal,
  };

  Code code = Code::internal;
  std::string message;

  static Error invalid_argument(std::string msg) { return {Code::invalid_argument, std::move(msg)}; }
  static Error not_found(std::string msg) { return {Code::not_found, std::move(msg)}; }
  static Error decode_failure(std::string msg) { return {Code::decode_failure, std::move(msg)}; }
  static Error transport_failure(std::string msg) { return {Code::transport_failure, std::move(msg)}; }
  static Error unsupported(std::string msg) { return {Code::unsupported, std::move(msg)}; }
  static Error conflict(std::string msg) { return {Code::conflict, std::move(msg)}; }
};

/// Result<T>: either a value or an Error. Result<void> specializes below.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : storage_(std::move(error)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(storage_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(storage_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(storage_));
  }
  T value_or(T fallback) const& { return ok() ? std::get<T>(storage_) : std::move(fallback); }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(storage_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Error> storage_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)), has_error_(true) {}  // NOLINT

  bool ok() const { return !has_error_; }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(has_error_);
    return error_;
  }

 private:
  Error error_;
  bool has_error_ = false;
};

using Status = Result<void>;

}  // namespace flexran::util
