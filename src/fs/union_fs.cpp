#include "fs/union_fs.hpp"

#include <cassert>

#include "fs/path.hpp"

namespace rattrap::fs {

UnionFs::UnionFs(std::string name,
                 std::vector<std::shared_ptr<const Layer>> lower)
    : top_(std::move(name)), lower_(std::move(lower)) {
  for (const auto& layer : lower_) {
    assert(layer && "null lower layer");
  }
}

UnionHit UnionFs::lookup(std::string_view path) const {
  const std::string key = normalize(path);
  if (const FileNode* node = top_.find(key)) {
    if (node->whiteout) return {};
    return {node, 0};
  }
  // Lower layers resolve top-down: the last layer in the vector is the
  // highest of the lower stack.
  for (std::size_t i = lower_.size(); i-- > 0;) {
    if (const FileNode* node = lower_[i]->find(key)) {
      if (node->whiteout) return {};
      return {node, lower_.size() - i};
    }
  }
  return {};
}

const FileNode* UnionFs::lower_lookup(std::string_view path) const {
  const std::string key = normalize(path);
  for (std::size_t i = lower_.size(); i-- > 0;) {
    if (const FileNode* node = lower_[i]->find(key)) {
      return node->whiteout ? nullptr : node;
    }
  }
  return nullptr;
}

std::int64_t UnionFs::read(std::string_view path, sim::SimTime now) {
  const std::string key = normalize(path);
  if (FileNode* node = top_.find(key)) {
    if (node->whiteout) return -1;
    node->atime = now;
    node->accessed = true;
    return static_cast<std::int64_t>(node->size);
  }
  if (const FileNode* node = lower_lookup(key)) {
    lower_reads_.insert(key);
    return static_cast<std::int64_t>(node->size);
  }
  return -1;
}

void UnionFs::write(std::string_view path, std::uint64_t size,
                    sim::SimTime now) {
  const std::string key = normalize(path);
  if (const FileNode* existing = top_.find(key);
      existing != nullptr && !existing->whiteout) {
    // Truncate-to-size semantics: a write always sets the new size.
    top_.put_file(key, size, now);
    return;
  }
  if (const FileNode* below = lower_lookup(key)) {
    // COW: materialize the lower file's bytes into the top layer first.
    cow_bytes_ += below->size;
  }
  top_.put_file(key, size, now);
}

void UnionFs::append(std::string_view path, std::uint64_t delta,
                     sim::SimTime now) {
  const std::string key = normalize(path);
  if (FileNode* node = top_.find(key); node != nullptr && !node->whiteout) {
    top_.put_file(key, node->size + delta, now);
    return;
  }
  std::uint64_t base = 0;
  if (const FileNode* below = lower_lookup(key)) {
    cow_bytes_ += below->size;
    base = below->size;
  }
  top_.put_file(key, base + delta, now);
}

bool UnionFs::unlink(std::string_view path) {
  const std::string key = normalize(path);
  const FileNode* in_top = top_.find(key);
  const bool top_visible = in_top != nullptr && !in_top->whiteout;
  const bool below = lower_lookup(key) != nullptr;
  if (!top_visible && (in_top != nullptr || !below)) {
    // Already whiteouted, or absent everywhere.
    return false;
  }
  if (top_visible) top_.erase(key);
  if (below) top_.put_whiteout(key);
  return top_visible || below;
}

std::uint64_t UnionFs::purge_top_layer() {
  const std::uint64_t freed = top_.total_bytes();
  top_.clear();
  return freed;
}

std::uint64_t UnionFs::visible_bytes() const {
  std::uint64_t sum = 0;
  for_each_visible([&](const std::string&, const FileNode& node) {
    if (node.kind == FileKind::kRegular) sum += node.size;
    return true;
  });
  return sum;
}

std::size_t UnionFs::visible_files() const {
  std::size_t n = 0;
  for_each_visible([&](const std::string&, const FileNode& node) {
    if (node.kind == FileKind::kRegular) ++n;
    return true;
  });
  return n;
}

void UnionFs::for_each_visible(
    const std::function<bool(const std::string&, const FileNode&)>& visit)
    const {
  // Merge all layers path-ordered; the topmost provider of a path wins.
  // Simple approach: gather winner per path into an ordered map view by
  // iterating layers bottom-up so later (higher) layers overwrite.
  std::map<std::string, const FileNode*, std::less<>> merged;
  for (const auto& layer : lower_) {
    layer->for_each([&](const std::string& path, const FileNode& node) {
      merged[path] = &node;
      return true;
    });
  }
  top_.for_each([&](const std::string& path, const FileNode& node) {
    merged[path] = &node;
    return true;
  });
  for (const auto& [path, node] : merged) {
    if (node->whiteout) continue;
    if (!visit(path, *node)) return;
  }
}

std::vector<std::string> UnionFs::readdir(std::string_view directory) const {
  const std::string dir = normalize(directory);
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  std::set<std::string> names;
  for_each_visible([&](const std::string& path, const FileNode&) {
    if (path.size() <= prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0) {
      return true;
    }
    const std::string rest = path.substr(prefix.size());
    const auto slash = rest.find('/');
    names.insert(slash == std::string::npos ? rest : rest.substr(0, slash));
    return true;
  });
  return {names.begin(), names.end()};
}

double UnionFs::never_accessed_fraction() const {
  std::size_t total = 0;
  std::size_t untouched = 0;
  for_each_visible([&](const std::string& path, const FileNode& node) {
    if (node.kind != FileKind::kRegular) return true;
    ++total;
    const bool read_through_top = node.accessed;
    const bool read_through_lower = lower_reads_.contains(path);
    if (!read_through_top && !read_through_lower) ++untouched;
    return true;
  });
  return total == 0 ? 0.0
                    : static_cast<double>(untouched) /
                          static_cast<double>(total);
}

std::uint64_t UnionFs::never_accessed_bytes() const {
  std::uint64_t bytes = 0;
  for_each_visible([&](const std::string& path, const FileNode& node) {
    if (node.kind != FileKind::kRegular) return true;
    if (!node.accessed && !lower_reads_.contains(path)) bytes += node.size;
    return true;
  });
  return bytes;
}

}  // namespace rattrap::fs
