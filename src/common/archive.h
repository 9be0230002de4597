#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

/// Binary serialization shared by every on-disk and wire format.
///
/// The archive is a flat little-endian byte stream with no per-field
/// framing: writer and reader must agree on the exact field sequence, which
/// each format version-gates in its header (common/envelope.h). So each
/// serialized type states that sequence once, as a walk
///
///     template <class Ar>
///     void fields(Ar& ar) { ar.io(a_, b_); ar.flag(on_, "T::on_"); }
///
/// that ArchiveWriter and ArchiveReader both run. The two archives share
/// one set of symmetric ops — the writer reads each field, the reader
/// assigns it:
///
///   io(v...)        each value by type: a RawArchivable scalar, array or
///                   record (memcpy), std::string, vector/deque/
///                   unordered_map (u64 count, then the elements; map
///                   entries in key order), std::pair,
///                   shared_ptr<const T> (u8 presence, then T),
///                   a type with a save_state/load_state entry pair, or a
///                   type with a `fields` walk;
///   flag(b, what)   a bool as one byte; decode rejects anything but 0/1;
///   enum_u8(e, lo, hi, what)
///                   an enum carried as one byte; decode rejects values
///                   outside [lo, hi];
///   fixed_count(n, what)
///                   a u64 echo of a constructor-fixed count; decode
///                   rejects a mismatch;
///   on_load(fn)     rebuild derived state: the reader runs `fn` at that
///                   point of the walk, the writer skips it;
///   walk(v)         run v's own `fields` (the body of an entry pair).
///
/// `io` refuses a bare bool or enum (use flag/enum_u8, so decoded values
/// are range-checked and errors name the field). Polymorphic types keep
/// one virtual save_state/load_state entry pair whose bodies are both
/// `ar.walk(*this)`.
///
/// Raw memcpy accepts only RawArchivable types — floating-point scalars or
/// types whose every byte is value — so a record with padding holes does
/// not compile, and stream bytes stay canonical across processes. The
/// put/get primitives remain for the few hand-written codecs (envelope
/// framing, JobSpec's snapshot tail).
/// Nothing here allocates on the read path beyond the containers being
/// filled, and every length prefix is checked against the bytes left;
/// containers of non-raw elements grow one decoded element at a time.
namespace mflush {

/// FNV-1a over a byte span — the content hash behind store keys and
/// campaign ids. Formats are sealed and framed by envelope::checksum.
[[nodiscard]] inline std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Types the archive may memcpy: every byte of the object is value.
template <class T>
concept RawArchivable =
    std::is_trivially_copyable_v<T> &&
    (std::is_floating_point_v<T> ||
     std::has_unique_object_representations_v<T>);

template <class T>
inline constexpr bool kCheckedScalar = std::is_same_v<T, bool> ||
                                       std::is_enum_v<T>;

class ArchiveWriter {
 public:
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <RawArchivable T>
  void put(const T& v) {
    put_bytes(&v, sizeof(T));
  }

  template <RawArchivable T>
  void put_vec(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    if (!v.empty()) put_bytes(v.data(), v.size() * sizeof(T));
  }

  // --- the walk ops (mirrored by ArchiveReader) ---------------------------

  template <class... T>
  void io(const T&... v) {
    (one(v), ...);
  }
  void flag(bool b, const char* /*what*/) { put<std::uint8_t>(b ? 1 : 0); }
  template <class E>
  void enum_u8(E e, E /*lo*/, E /*hi*/, const char* /*what*/) {
    put(static_cast<std::uint8_t>(e));
  }
  void fixed_count(std::uint64_t n, const char* /*what*/) { put(n); }
  template <class F>
  void on_load(F&& /*fn*/) {}
  /// A walk only reads through the writer, so running it on a const
  /// object is safe.
  template <class T>
  void walk(const T& v) {
    const_cast<T&>(v).fields(*this);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  template <class T>
  void one(const T& v) {
    static_assert(!kCheckedScalar<T>, "bool/enum fields: use flag/enum_u8");
    if constexpr (requires { v.save_state(*this); }) {
      v.save_state(*this);
    } else if constexpr (requires(T& m) { m.fields(*this); }) {
      walk(v);
    } else {
      static_assert(RawArchivable<T>, "padded record: add explicit _pad");
      put(v);
    }
  }
  void one(const std::string& s) {
    put<std::uint64_t>(s.size());
    put_bytes(s.data(), s.size());
  }
  template <class T>
  void one(const std::vector<T>& v) {
    if constexpr (RawArchivable<T>) {
      put_vec(v);
    } else {
      put<std::uint64_t>(v.size());
      for (const T& e : v) one(e);
    }
  }
  template <class T>
  void one(const std::deque<T>& d) {
    put<std::uint64_t>(d.size());
    for (const T& e : d) one(e);
  }
  template <class K, class V>
  void one(const std::unordered_map<K, V>& m) {
    // Key order, not iteration order: the bucket layout depends on the
    // map's insert/erase history, which a restore does not reproduce, so
    // equal maps would otherwise write different bytes.
    std::vector<const std::pair<const K, V>*> entries;
    entries.reserve(m.size());
    for (const auto& e : m) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    put<std::uint64_t>(m.size());
    for (const auto* e : entries) io(e->first, e->second);
  }
  template <class A, class B>
  void one(const std::pair<A, B>& p) {
    io(p.first, p.second);
  }
  template <class T>
  void one(const std::shared_ptr<const T>& p) {
    flag(p != nullptr, "presence");
    if (p) one(*p);
  }

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

  template <RawArchivable T>
  [[nodiscard]] T get() {
    T v;
    get_bytes(&v, sizeof(T));
    return v;
  }

  template <RawArchivable T>
  void get_vec(std::vector<T>& v) {
    const auto n = checked_size(get<std::uint64_t>(), sizeof(T));
    v.resize(n);
    if (n != 0) get_bytes(v.data(), n * sizeof(T));
  }

  // --- the walk ops (mirrored by ArchiveWriter) ---------------------------

  template <class... T>
  void io(T&... v) {
    (one(v), ...);
  }
  void flag(bool& b, const char* what) {
    const auto x = get<std::uint8_t>();
    if (x > 1) reject(what, x);
    b = x != 0;
  }
  template <class E>
  void enum_u8(E& e, E lo, E hi, const char* what) {
    const auto x = get<std::uint8_t>();
    if (x < static_cast<std::uint8_t>(lo) || x > static_cast<std::uint8_t>(hi))
      reject(what, x);
    e = static_cast<E>(x);
  }
  void fixed_count(std::uint64_t n, const char* what) {
    if (get<std::uint64_t>() != n)
      throw std::runtime_error(std::string(what) + " mismatch");
  }
  template <class F>
  void on_load(F&& fn) {
    fn();
  }
  template <class T>
  void walk(T& v) {
    v.fields(*this);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  template <class T>
  void one(T& v) {
    static_assert(!kCheckedScalar<T>, "bool/enum fields: use flag/enum_u8");
    if constexpr (requires { v.load_state(*this); }) {
      v.load_state(*this);
    } else if constexpr (requires { v.fields(*this); }) {
      walk(v);
    } else {
      static_assert(RawArchivable<T>, "padded record: add explicit _pad");
      get_bytes(&v, sizeof(T));
    }
  }
  void one(std::string& s) {
    const auto n = checked_size(get<std::uint64_t>(), 1);
    s.assign(n, '\0');
    get_bytes(s.data(), n);
  }
  template <class T>
  void one(std::vector<T>& v) {
    if constexpr (RawArchivable<T>) {
      get_vec(v);
    } else {
      // One element at a time: a forged count bounded only by the bytes
      // left must fail at the first short element, not pre-size the vector.
      const auto n = checked_size(get<std::uint64_t>(), min_size<T>());
      v.clear();
      for (std::size_t i = 0; i < n; ++i) one(v.emplace_back());
    }
  }
  template <class T>
  void one(std::deque<T>& d) {
    const auto n = checked_size(get<std::uint64_t>(), min_size<T>());
    d.clear();
    for (std::size_t i = 0; i < n; ++i) one(d.emplace_back());
  }
  template <class K, class V>
  void one(std::unordered_map<K, V>& m) {
    const auto n =
        checked_size(get<std::uint64_t>(), min_size<K>() + min_size<V>());
    m.clear();
    if constexpr (RawArchivable<K> && RawArchivable<V>) m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      io(k, v);
      m.emplace(std::move(k), std::move(v));
    }
  }
  template <class A, class B>
  void one(std::pair<A, B>& p) {
    io(p.first, p.second);
  }
  template <class T>
  void one(std::shared_ptr<const T>& p) {
    bool present = false;
    flag(present, "presence");
    p.reset();
    if (!present) return;
    auto v = std::make_shared<T>();
    one(*v);
    p = std::move(v);
  }

  /// Fewest stream bytes one element can occupy (length-prefix guard).
  template <class T>
  [[nodiscard]] static constexpr std::size_t min_size() noexcept {
    return RawArchivable<T> ? sizeof(T) : 1;
  }

  [[noreturn]] static void reject(const char* what, std::uint64_t value) {
    throw std::runtime_error(std::string(what) + ": invalid value " +
                             std::to_string(value));
  }

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
