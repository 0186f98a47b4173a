#include "mp/block_store.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace hetgrid {

namespace {

std::uint64_t shape_key(std::size_t rows, std::size_t cols) {
  return (static_cast<std::uint64_t>(rows) << 32) ^
         static_cast<std::uint64_t>(cols);
}

}  // namespace

void BlockStore::put(BlockKey key, Matrix block) {
  blocks_[key] = std::move(block);
}

MatrixView BlockStore::at(BlockKey key) {
  auto it = blocks_.find(key);
  HG_CHECK(it != blocks_.end(), "block (" << key.row << "," << key.col
                                          << ") is not in local memory");
  return it->second.view();
}

ConstMatrixView BlockStore::at(BlockKey key) const {
  auto it = blocks_.find(key);
  HG_CHECK(it != blocks_.end(), "block (" << key.row << "," << key.col
                                          << ") is not in local memory");
  return it->second.view();
}

void BlockStore::erase(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  Matrix& m = it->second;
  if (!m.empty()) {
    auto& shelf = pool_[shape_key(m.rows(), m.cols())];
    if (shelf.size() < kPoolCapPerShape) {
      shelf.push_back(std::move(m));
    } else {
      metric_count("block_store.pool_evictions");
    }
  }
  blocks_.erase(it);
}

Matrix BlockStore::acquire(std::size_t rows, std::size_t cols) {
  auto it = pool_.find(shape_key(rows, cols));
  if (it != pool_.end() && !it->second.empty()) {
    metric_count("block_store.pool_hits");
    Matrix m = std::move(it->second.back());
    it->second.pop_back();
    return m;
  }
  metric_count("block_store.pool_misses");
  return Matrix::uninitialized(rows, cols);
}

void BlockStore::reserve(std::size_t blocks) { blocks_.reserve(blocks); }

std::size_t BlockStore::pooled() const {
  std::size_t n = 0;
  for (const auto& [shape, buffers] : pool_) n += buffers.size();
  return n;
}

}  // namespace hetgrid
