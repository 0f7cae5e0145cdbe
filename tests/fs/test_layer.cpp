#include "fs/layer.hpp"

#include <gtest/gtest.h>

namespace rattrap::fs {
namespace {

TEST(Layer, PutAndFind) {
  Layer layer("test");
  layer.put_file("/a/b.txt", 100);
  const FileNode* node = layer.find("/a/b.txt");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->size, 100u);
  EXPECT_EQ(node->kind, FileKind::kRegular);
  EXPECT_EQ(layer.find("/missing"), nullptr);
}

TEST(Layer, PathsAreNormalizedOnInsertAndLookup) {
  Layer layer("test");
  layer.put_file("/a//b/../c.txt", 5);
  EXPECT_TRUE(layer.contains("/a/c.txt"));
  EXPECT_TRUE(layer.contains("/a/./c.txt"));
}

TEST(Layer, AccountingTracksBytesAndCount) {
  Layer layer("test");
  layer.put_file("/x", 10);
  layer.put_file("/y", 20);
  layer.put_dir("/d");
  EXPECT_EQ(layer.total_bytes(), 30u);
  EXPECT_EQ(layer.file_count(), 2u);
  EXPECT_EQ(layer.entry_count(), 3u);
}

TEST(Layer, ClearResetsEntriesAndAccounting) {
  Layer layer("test");
  layer.put_file("/x", 10);
  layer.put_file("/d/y", 20);
  layer.put_dir("/d");
  layer.put_whiteout("/gone");
  layer.clear();
  EXPECT_EQ(layer.total_bytes(), 0u);
  EXPECT_EQ(layer.file_count(), 0u);
  EXPECT_EQ(layer.entry_count(), 0u);
  EXPECT_FALSE(layer.contains("/x"));
  layer.put_file("/x", 7);  // the ledger restarts from zero
  EXPECT_EQ(layer.total_bytes(), 7u);
  EXPECT_EQ(layer.file_count(), 1u);
}

TEST(Layer, ReplaceUpdatesAccounting) {
  Layer layer("test");
  layer.put_file("/x", 10);
  layer.put_file("/x", 25);
  EXPECT_EQ(layer.total_bytes(), 25u);
  EXPECT_EQ(layer.file_count(), 1u);
}

TEST(Layer, EraseUpdatesAccounting) {
  Layer layer("test");
  layer.put_file("/x", 10);
  EXPECT_TRUE(layer.erase("/x"));
  EXPECT_FALSE(layer.erase("/x"));
  EXPECT_EQ(layer.total_bytes(), 0u);
  EXPECT_EQ(layer.file_count(), 0u);
}

TEST(Layer, WhiteoutsDoNotCountAsFiles) {
  Layer layer("test");
  layer.put_whiteout("/hidden");
  EXPECT_EQ(layer.file_count(), 0u);
  EXPECT_EQ(layer.total_bytes(), 0u);
  const FileNode* node = layer.find("/hidden");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->whiteout);
}

TEST(Layer, WhiteoutReplacingFileRemovesItsBytes) {
  Layer layer("test");
  layer.put_file("/x", 100);
  layer.put_whiteout("/x");
  EXPECT_EQ(layer.total_bytes(), 0u);
}

TEST(Layer, ForEachVisitsInPathOrder) {
  Layer layer("test");
  layer.put_file("/b", 1);
  layer.put_file("/a", 1);
  layer.put_file("/c", 1);
  std::vector<std::string> seen;
  layer.for_each([&](const std::string& path, const FileNode&) {
    seen.push_back(path);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(Layer, ForEachEarlyStop) {
  Layer layer("test");
  for (int i = 0; i < 10; ++i) {
    layer.put_file("/f" + std::to_string(i), 1);
  }
  int visits = 0;
  layer.for_each([&](const std::string&, const FileNode&) {
    return ++visits < 3;
  });
  EXPECT_EQ(visits, 3);
}

TEST(Layer, ForEachUnderScopesToSubtree) {
  Layer layer("test");
  layer.put_file("/a/x", 1);
  layer.put_file("/a/y", 2);
  layer.put_file("/ab", 4);  // sibling whose name shares the prefix
  layer.put_file("/b/z", 8);
  EXPECT_EQ(layer.bytes_under("/a"), 3u);
  EXPECT_EQ(layer.bytes_under("/b"), 8u);
  EXPECT_EQ(layer.bytes_under("/"), 15u);
  EXPECT_EQ(layer.bytes_under("/missing"), 0u);
}

TEST(Layer, DeviceNodes) {
  Layer layer("test");
  layer.put_device("/dev/binder");
  const FileNode* node = layer.find("/dev/binder");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->kind, FileKind::kDevice);
  EXPECT_EQ(layer.total_bytes(), 0u);
}

}  // namespace
}  // namespace rattrap::fs
