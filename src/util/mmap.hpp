// Read-only file image for the dataset loader (synth/dataset_io.hpp).
// `MappedFile` wraps mmap(PROT_READ, MAP_PRIVATE) with RAII unmap;
// `FileImage` is the loader-facing abstraction: it maps when it can and
// falls back to reading the whole file into a heap buffer when mmap is
// unavailable (exotic filesystems), so the loader parses from one
// `std::span<const std::uint8_t>` either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace longtail::util {

class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot read " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw std::runtime_error("cannot stat " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p == MAP_FAILED) {
        ::close(fd);
        throw std::runtime_error("mmap failed: " + path);
      }
      data_ = static_cast<const std::uint8_t*>(p);
    }
    ::close(fd);  // the mapping keeps its own reference
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      unmap();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~MappedFile() { unmap(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Access-pattern hint for the whole mapping (best effort).
  void advise_sequential() const noexcept {
    if (data_ != nullptr)
      ::madvise(const_cast<std::uint8_t*>(data_), size_, MADV_SEQUENTIAL);
  }

  // Drops the resident pages fully inside [offset, offset+len) — the
  // loader uses this to release each section once it is parsed. Page
  // contents survive in the page cache; touching the range again is a
  // cheap minor fault. Best effort: errors ignored.
  void release_range(std::size_t offset, std::size_t len) const noexcept {
    if (data_ == nullptr || len == 0 || offset >= size_) return;
    const std::size_t page = page_size();
    const std::size_t begin = ((offset + page - 1) / page) * page;  // inward
    std::size_t end = offset + std::min(len, size_ - offset);
    end = (end / page) * page;  // inward
    if (end <= begin) return;
    ::madvise(const_cast<std::uint8_t*>(data_ + begin), end - begin,
              MADV_DONTNEED);
  }

  [[nodiscard]] static std::size_t page_size() noexcept {
    static const std::size_t p =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return p;
  }

 private:
  void unmap() noexcept {
    if (data_ != nullptr)
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// A whole file as a byte span: mapped when possible, heap-read otherwise.
class FileImage {
 public:
  explicit FileImage(const std::string& path) {
    try {
      mapped_ = std::make_unique<MappedFile>(path);
    } catch (const std::exception&) {
      // Fall back to a plain read; re-throws with the original message if
      // the file is simply unreadable.
      read_fallback(path);
    }
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return mapped_ ? mapped_->bytes()
                   : std::span<const std::uint8_t>(heap_);
  }

  // See MappedFile::release_range; no-op for the heap fallback.
  void release_range(std::size_t offset, std::size_t len) const noexcept {
    if (mapped_) mapped_->release_range(offset, len);
  }
  void advise_sequential() const noexcept {
    if (mapped_) mapped_->advise_sequential();
  }

 private:
  void read_fallback(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot read " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw std::runtime_error("cannot stat " + path);
    }
    heap_.resize(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (off < heap_.size()) {
      const ::ssize_t n = ::read(fd, heap_.data() + off, heap_.size() - off);
      if (n <= 0) {
        ::close(fd);
        throw std::runtime_error("cannot read " + path);
      }
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }

  std::unique_ptr<MappedFile> mapped_;
  std::vector<std::uint8_t> heap_;
};

}  // namespace longtail::util
