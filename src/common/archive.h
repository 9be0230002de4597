#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

/// Minimal binary serialization shared by every on-disk and wire format.
///
/// The archive is a flat little-endian byte stream with no per-field
/// framing: writer and reader must agree on the exact field sequence, which
/// each format version-gates in its header (common/envelope.h). Only
/// trivially-copyable value types are serialized directly; containers are
/// length-prefixed. Nothing here allocates on the read path beyond the
/// containers being filled.
namespace mflush {

/// FNV-1a over a byte span — the checksum common/envelope seals and frames
/// every format with, and the content hash behind store keys.
[[nodiscard]] inline std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

class ArchiveWriter {
 public:
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "field-wise save required for non-trivial types");
    put_bytes(&v, sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    put_bytes(s.data(), s.size());
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    if (!v.empty()) put_bytes(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  void put_deque(const std::deque<T>& d) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(d.size());
    for (const T& v : d) put(v);
  }

  template <typename K, typename V>
  void put_map(const std::unordered_map<K, V>& m) {
    static_assert(std::is_trivially_copyable_v<K> &&
                  std::is_trivially_copyable_v<V>);
    put<std::uint64_t>(m.size());
    for (const auto& [k, v] : m) {
      put(k);
      put(v);
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ArchiveReader {
 public:
  explicit ArchiveReader(std::span<const std::uint8_t> bytes)
      : data_(bytes) {}

  void get_bytes(void* p, std::size_t n) {
    if (n > data_.size() - pos_)
      throw std::runtime_error("archive truncated");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    get_bytes(&v, sizeof(T));
    return v;
  }

  [[nodiscard]] std::string get_string() {
    const auto n = checked_size(get<std::uint64_t>(), 1);
    std::string s(n, '\0');
    get_bytes(s.data(), n);
    return s;
  }

  template <typename T>
  void get_vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = checked_size(get<std::uint64_t>(), sizeof(T));
    v.resize(n);
    if (n != 0) get_bytes(v.data(), n * sizeof(T));
  }

  template <typename T>
  void get_deque(std::deque<T>& d) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = checked_size(get<std::uint64_t>(), sizeof(T));
    d.clear();
    for (std::size_t i = 0; i < n; ++i) d.push_back(get<T>());
  }

  template <typename K, typename V>
  void get_map(std::unordered_map<K, V>& m) {
    const auto n = checked_size(get<std::uint64_t>(), sizeof(K) + sizeof(V));
    m.clear();
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k = get<K>();
      m.emplace(std::move(k), get<V>());
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  /// Guard length prefixes against truncated/corrupt archives before any
  /// resize: a bogus 2^60 length must throw, not allocate.
  [[nodiscard]] std::size_t checked_size(std::uint64_t n,
                                         std::size_t elem_size) const {
    if (n > (data_.size() - pos_) / elem_size)
      throw std::runtime_error("archive truncated");
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mflush
