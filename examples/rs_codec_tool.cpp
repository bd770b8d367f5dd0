// Standalone erasure-codec utility: exercises the ec library on real files,
// the way the paper's Zfec dependency would be used outside the consensus
// stack (§5). Splits a file into n share files (any m reconstruct), or joins
// shares back into the original.
//
//   rs_codec_tool split <m> <n> <input> <out-prefix>
//   rs_codec_tool join  <m> <n> <size> <output> <share>...
//
// Share files are named <out-prefix>.<idx> ; `size` is the original byte
// length printed by split.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ec/policy.h"
#include "util/crc32.h"

using namespace rspaxos;

namespace {

bool read_file(const std::string& path, Bytes& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  out.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  return true;
}

bool write_file(const std::string& path, BytesView data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(f);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rs_codec_tool split <m> <n> <input> <out-prefix>\n"
               "  rs_codec_tool join  <m> <n> <size> <output> <share-file>...\n"
               "share files carry the index as their extension: prefix.0, prefix.1, ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "split" && argc == 6) {
    int m = std::atoi(argv[2]);
    int n = std::atoi(argv[3]);
    auto code = ec::PolicyCache::get_checked(static_cast<uint8_t>(ec::CodeId::kRs),
                                             static_cast<uint64_t>(m), static_cast<uint64_t>(n));
    if (!code.is_ok()) {
      std::fprintf(stderr, "bad theta(%d, %d): %s\n", m, n,
                   code.status().to_string().c_str());
      return 1;
    }
    Bytes input;
    if (!read_file(argv[4], input)) {
      std::fprintf(stderr, "cannot read %s\n", argv[4]);
      return 1;
    }
    auto shares = code.value()->encode(input);
    for (int i = 0; i < n; ++i) {
      std::string path = std::string(argv[5]) + "." + std::to_string(i);
      if (!write_file(path, shares[static_cast<size_t>(i)])) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
    }
    std::printf("split %zu bytes into %d shares of %zu bytes (any %d reconstruct)\n",
                input.size(), n, code.value()->share_size(input.size()), m);
    std::printf("original size: %zu   crc32c: %08x\n", input.size(), crc32c(input));
    return 0;
  }

  if (mode == "join" && argc >= 6) {
    int m = std::atoi(argv[2]);
    int n = std::atoi(argv[3]);
    size_t size = static_cast<size_t>(std::atoll(argv[4]));
    auto code = ec::PolicyCache::get_checked(static_cast<uint8_t>(ec::CodeId::kRs),
                                             static_cast<uint64_t>(m), static_cast<uint64_t>(n));
    if (!code.is_ok()) {
      std::fprintf(stderr, "bad theta(%d, %d)\n", m, n);
      return 1;
    }
    std::map<int, Bytes> shares;
    for (int a = 6; a < argc; ++a) {
      std::string path = argv[a];
      auto dot = path.rfind('.');
      if (dot == std::string::npos) {
        std::fprintf(stderr, "share file %s has no .<idx> suffix\n", path.c_str());
        return 1;
      }
      int idx = std::atoi(path.substr(dot + 1).c_str());
      Bytes data;
      if (!read_file(path, data)) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
      }
      shares.emplace(idx, std::move(data));
    }
    auto out = code.value()->decode(shares, size);
    if (!out.is_ok()) {
      std::fprintf(stderr, "decode failed: %s\n", out.status().to_string().c_str());
      return 1;
    }
    if (!write_file(argv[5], out.value())) {
      std::fprintf(stderr, "cannot write %s\n", argv[5]);
      return 1;
    }
    std::printf("reconstructed %zu bytes from %zu shares   crc32c: %08x\n",
                out.value().size(), shares.size(), crc32c(out.value()));
    return 0;
  }

  return usage();
}
