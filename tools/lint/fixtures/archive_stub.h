// Minimal stand-in for common/archive.h so the lint fixtures are
// self-contained: the structural parser keys on the ArchiveWriter /
// ArchiveReader names and on the walk ops, never on their bodies.
#pragma once

#include <cstdint>

namespace fixture {

class ArchiveWriter {
 public:
  template <class... T>
  void io(const T&... v);
  template <class T>
  void put(const T& v);
};

class ArchiveReader {
 public:
  template <class... T>
  void io(T&... v);
  template <class T>
  T get();
};

}  // namespace fixture
