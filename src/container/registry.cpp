#include "container/registry.hpp"

namespace rattrap::container {
namespace {

// FNV-1a over a byte span.
void mix(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
}

}  // namespace

Digest layer_digest(const fs::Layer& layer) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  layer.for_each([&](const std::string& path, const fs::FileNode& node) {
    mix(hash, path.data(), path.size());
    const std::uint64_t size = node.size;
    mix(hash, &size, sizeof size);
    const auto kind = static_cast<std::uint8_t>(node.kind);
    mix(hash, &kind, sizeof kind);
    return true;
  });
  return hash;
}

void LayerStore::add(Digest digest, std::shared_ptr<const fs::Layer> layer) {
  layers_.emplace(digest, std::move(layer));
}

Digest LayerStore::add(std::shared_ptr<const fs::Layer> layer) {
  auto it = digests_.find(layer);
  if (it == digests_.end()) {
    it = digests_.emplace(layer, layer_digest(*layer)).first;
  }
  add(it->second, std::move(layer));
  return it->second;
}

std::shared_ptr<const fs::Layer> LayerStore::get(Digest digest) const {
  const auto it = layers_.find(digest);
  return it == layers_.end() ? nullptr : it->second;
}

std::uint64_t LayerStore::stored_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [digest, layer] : layers_) {
    (void)digest;
    sum += layer->total_bytes();
  }
  return sum;
}

Digest ImageRegistry::push_layer(std::shared_ptr<const fs::Layer> layer) {
  const Digest digest = layer_digest(*layer);
  blobs_.emplace(digest, std::move(layer));
  return digest;
}

bool ImageRegistry::push_image(std::string reference,
                               std::vector<Digest> layers) {
  std::uint64_t total = 0;
  for (const Digest digest : layers) {
    const auto it = blobs_.find(digest);
    if (it == blobs_.end()) return false;
    total += it->second->total_bytes();
  }
  ImageManifest manifest;
  manifest.reference = reference;
  manifest.layers = std::move(layers);
  manifest.total_bytes = total;
  manifests_.insert_or_assign(std::move(reference), std::move(manifest));
  return true;
}

const ImageManifest* ImageRegistry::find(std::string_view reference) const {
  const auto it = manifests_.find(reference);
  return it == manifests_.end() ? nullptr : &it->second;
}

PullResult ImageRegistry::pull(std::string_view reference,
                               LayerStore& store) const {
  PullResult result;
  const ImageManifest* manifest = find(reference);
  if (manifest == nullptr) return result;
  for (const Digest digest : manifest->layers) {
    const auto it = blobs_.find(digest);
    if (it == blobs_.end()) return PullResult{};  // corrupt manifest
    if (store.has(digest)) {
      result.bytes_deduplicated += it->second->total_bytes();
    } else {
      result.bytes_transferred += it->second->total_bytes();
      store.add(digest, it->second);
    }
    result.layers.push_back(store.get(digest));
  }
  result.ok = true;
  return result;
}

std::vector<std::string> ImageRegistry::references() const {
  std::vector<std::string> out;
  out.reserve(manifests_.size());
  for (const auto& [reference, manifest] : manifests_) {
    (void)manifest;
    out.push_back(reference);
  }
  return out;
}

}  // namespace rattrap::container
