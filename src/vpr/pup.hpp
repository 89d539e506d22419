// PUP (pack/unpack) serialization, modelled on Charm++/AMPI's PUP
// framework which the paper uses for VP migration ("the user can provide
// appropriate packing/unpacking (PUP) routines. We opted for PUP because
// it yields higher performance", §IV-C). A single pup() method describes
// a type's state once and is used for sizing, packing and unpacking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace picprk::vpr {

class Pup {
 public:
  enum class Mode { Size, Pack, Unpack };

  /// Sizing or packing pupper. A Pack-mode pupper made this way grows
  /// its buffer as it goes; pup_pack sizes it up front instead.
  explicit Pup(Mode mode) : mode_(mode) {
    PICPRK_EXPECTS(mode != Mode::Unpack);
  }

  /// Packing pupper over a buffer sized up front to `header + body`
  /// bytes (`body` from a Size pass): packing starts after the caller's
  /// `header` leading bytes and never regrows the buffer.
  Pup(std::size_t header, std::size_t body)
      : mode_(Mode::Pack), buffer_(header + body), base_(header), cursor_(header) {}

  /// Unpacking pupper over bytes the caller keeps alive.
  explicit Pup(std::span<const std::byte> bytes) : mode_(Mode::Unpack), in_(bytes) {}

  Mode mode() const { return mode_; }
  bool packing() const { return mode_ == Mode::Pack; }
  bool unpacking() const { return mode_ == Mode::Unpack; }
  bool sizing() const { return mode_ == Mode::Size; }

  /// Scalar / trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void operator()(T& value) {
    raw(&value, sizeof(T));
  }

  /// Vector of trivially-copyable elements (length-prefixed).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void operator()(std::vector<T>& vec) {
    std::uint64_t n = vec.size();
    (*this)(n);
    if (unpacking()) vec.resize(n);
    if (n > 0) raw(vec.data(), n * sizeof(T));
  }

  void operator()(std::string& s) {
    std::uint64_t n = s.size();
    (*this)(n);
    if (unpacking()) s.resize(n);
    if (n > 0) raw(s.data(), n);
  }

  /// Vector of nested pupable objects (element-wise).
  template <typename T>
    requires(!std::is_trivially_copyable_v<T>) &&
            requires(T& t, Pup& p) { t.pup(p); }
  void operator()(std::vector<T>& vec) {
    std::uint64_t n = vec.size();
    (*this)(n);
    if (unpacking()) vec.resize(n);
    for (auto& element : vec) element.pup(*this);
  }

  /// Nested pupable object.
  template <typename T>
    requires requires(T& t, Pup& p) { t.pup(p); }
  void operator()(T& value) {
    value.pup(*this);
  }

  /// Bulk access for types that pack a large run in place instead of
  /// staging it through a temporary: advances over `n` bytes and returns
  /// where they are written (Pack mode) or nullptr (Size mode).
  std::byte* pack_window(std::size_t n) {
    PICPRK_EXPECTS(!unpacking());
    std::byte* out = nullptr;
    if (packing()) {
      if (cursor_ + n > buffer_.size()) buffer_.resize(cursor_ + n);
      out = buffer_.data() + cursor_;
    }
    cursor_ += n;
    return out;
  }

  /// Unpack-mode counterpart of pack_window: advances over `n` bytes and
  /// returns where they are read from.
  const std::byte* unpack_window(std::size_t n) {
    PICPRK_EXPECTS(unpacking());
    PICPRK_ASSERT_MSG(cursor_ + n <= in_.size(),
                      "pup unpack ran past the end of the buffer");
    const std::byte* in = in_.data() + cursor_;
    cursor_ += n;
    return in;
  }

  /// Bytes processed so far (== final size after a Size pass), not
  /// counting a packing buffer's header.
  std::size_t bytes() const { return cursor_ - base_; }

  /// Takes the packed buffer (Pack mode, after pupping everything).
  std::vector<std::byte> take_buffer() {
    PICPRK_EXPECTS(packing());
    return std::move(buffer_);
  }

  /// In Unpack mode: whether the whole buffer was consumed.
  bool fully_consumed() const { return cursor_ == in_.size(); }

 private:
  void raw(void* data, std::size_t n) {
    if (unpacking()) {
      std::memcpy(data, unpack_window(n), n);
    } else if (std::byte* out = pack_window(n)) {
      std::memcpy(out, data, n);
    }
  }

  Mode mode_;
  std::vector<std::byte> buffer_;  ///< Pack mode: the output
  std::span<const std::byte> in_;  ///< Unpack mode: the input
  std::size_t base_ = 0;           ///< Pack mode: header bytes before the state
  std::size_t cursor_ = 0;
};

/// Size a pupable object's packed representation.
template <typename T>
std::size_t pup_size(T& object) {
  Pup p(Pup::Mode::Size);
  object.pup(p);
  return p.bytes();
}

/// Packs a pupable object into one exactly-sized buffer (a Size pass
/// first), after `header` leading bytes the caller fills in itself — so
/// a transport header and the state travel in a single allocation.
template <typename T>
std::vector<std::byte> pup_pack(T& object, std::size_t header = 0) {
  Pup p(header, pup_size(object));
  object.pup(p);
  return p.take_buffer();
}

/// Unpacks bytes into an existing object (must consume them fully).
template <typename T>
void pup_unpack(T& object, std::span<const std::byte> bytes) {
  Pup p(bytes);
  object.pup(p);
  PICPRK_ASSERT_MSG(p.fully_consumed(), "pup unpack left trailing bytes");
}

/// Unpacks a buffer into an existing object (must consume it fully).
template <typename T>
void pup_unpack(T& object, std::vector<std::byte> buffer) {
  pup_unpack(object, std::span<const std::byte>(buffer));
}

}  // namespace picprk::vpr
