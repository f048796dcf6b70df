/**
 * @file
 * VFS implementation.
 */

#include "vfs.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/logging.hh"

namespace genesys::osk
{

namespace
{

// Per-file backing-store ceiling (RLIMIT_FSIZE stand-in). write,
// pwrite, and ftruncate all reach RegularFile with GPU-supplied
// (offset, length) pairs; the clamp lives here so every path that can
// grow data_ is bounded at the single allocation site.
constexpr std::uint64_t kMaxRegularFileBytes = 1ull << 31;

} // namespace

// ------------------------------------------------------------ RegularFile

void
RegularFile::setData(std::string_view data)
{
    data_.assign(data.begin(), data.end());
    size_ = data_.size();
    synthetic_ = false;
    gen_ = {};
}

void
RegularFile::setData(std::vector<std::uint8_t> data)
{
    data_ = std::move(data);
    size_ = data_.size();
    synthetic_ = false;
    gen_ = {};
}

void
RegularFile::setSynthetic(std::uint64_t bytes,
                          std::function<std::uint8_t(std::uint64_t)> gen)
{
    data_.clear();
    size_ = bytes;
    synthetic_ = true;
    gen_ = std::move(gen);
}

std::uint64_t
RegularFile::readAt(std::uint64_t offset, void *dst,
                    std::uint64_t len) const
{
    if (offset >= size_)
        return 0;
    const std::uint64_t n = std::min(len, size_ - offset);
    if (dst == nullptr)
        return n;
    auto *out = static_cast<std::uint8_t *>(dst);
    if (synthetic_) {
        if (gen_) {
            for (std::uint64_t i = 0; i < n; ++i)
                out[i] = gen_(offset + i);
        } else {
            std::memset(out, 0, n);
        }
    } else {
        std::memcpy(out, data_.data() + offset, n);
    }
    return n;
}

std::uint64_t
RegularFile::writeAt(std::uint64_t offset, const void *src,
                     std::uint64_t len)
{
    if (offset >= kMaxRegularFileBytes)
        return 0; // short write at the size ceiling, like RLIMIT_FSIZE
    len = std::min(len, kMaxRegularFileBytes - offset);
    if (synthetic_) {
        // Benchmark sink: account size only.
        size_ = std::max(size_, offset + len);
        return len;
    }
    if (offset + len > data_.size())
        data_.resize(offset + len, 0);
    if (src != nullptr)
        std::memcpy(data_.data() + offset, src, len);
    size_ = data_.size();
    return len;
}

void
RegularFile::truncate(std::uint64_t new_size)
{
    new_size = std::min(new_size, kMaxRegularFileBytes);
    if (!synthetic_)
        data_.resize(new_size, 0);
    size_ = new_size;
}

// -------------------------------------------------------------- Directory

void
Directory::populate() const
{
    // Taken out first: the fill adds through this same directory.
    if (fill_)
        std::exchange(fill_, nullptr)();
}

Inode *
Directory::lookup(std::string_view name) const
{
    populate();
    auto it = children_.find(name);
    return it == children_.end() ? nullptr : it->second.get();
}

void
Directory::add(std::string_view name, std::shared_ptr<Inode> child)
{
    populate();
    children_.insert_or_assign(std::string(name), std::move(child));
}

bool
Directory::remove(std::string_view name)
{
    populate();
    auto it = children_.find(name);
    if (it == children_.end())
        return false;
    children_.erase(it);
    return true;
}

const Directory::Entries &
Directory::entries() const
{
    populate();
    return children_;
}

// -------------------------------------------------------------------- Vfs

namespace
{

/** The non-empty '/'-separated components of a path, front to back. */
class PathWalk
{
  public:
    explicit PathWalk(std::string_view path) : rest_(path) {}

    /** Set @p part to the next component. @return false at the end. */
    bool
    next(std::string_view &part)
    {
        while (!rest_.empty() && rest_.front() == '/')
            rest_.remove_prefix(1);
        if (rest_.empty())
            return false;
        const std::size_t end = std::min(rest_.find('/'), rest_.size());
        part = rest_.substr(0, end);
        rest_.remove_prefix(end);
        return true;
    }

  private:
    std::string_view rest_;
};

} // namespace

Vfs::Vfs() : root_(std::make_shared<Directory>()) {}

std::size_t
Vfs::componentCount(std::string_view path)
{
    PathWalk walk(path);
    std::size_t n = 0;
    for (std::string_view part; walk.next(part);)
        ++n;
    return n;
}

Inode *
Vfs::resolve(std::string_view path) const
{
    if (path.empty() || path[0] != '/')
        return nullptr;
    Inode *cur = root_.get();
    PathWalk walk(path);
    for (std::string_view part; walk.next(part);) {
        if (cur->type() != InodeType::Directory)
            return nullptr;
        cur = static_cast<Directory *>(cur)->lookup(part);
        if (cur == nullptr)
            return nullptr;
    }
    return cur;
}

Directory *
Vfs::ensureDir(std::string_view dirPath)
{
    Directory *cur = root_.get();
    PathWalk walk(dirPath);
    for (std::string_view part; walk.next(part);) {
        Inode *next = cur->lookup(part);
        if (next == nullptr) {
            auto dir = std::make_shared<Directory>();
            Directory *raw = dir.get();
            cur->add(part, std::move(dir));
            cur = raw;
            continue;
        }
        if (next->type() != InodeType::Directory)
            return nullptr;
        cur = static_cast<Directory *>(next);
    }
    return cur;
}

RegularFile *
Vfs::createFile(std::string_view path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string_view::npos)
        return nullptr;
    const std::string_view name = path.substr(slash + 1);
    if (name.empty())
        return nullptr;
    Directory *parent = ensureDir(path.substr(0, slash));
    if (parent == nullptr)
        return nullptr;
    if (Inode *existing = parent->lookup(name)) {
        if (existing->type() != InodeType::Regular)
            return nullptr;
        auto *file = static_cast<RegularFile *>(existing);
        file->truncate(0);
        return file;
    }
    auto file = std::make_shared<RegularFile>();
    RegularFile *raw = file.get();
    parent->add(name, std::move(file));
    return raw;
}

bool
Vfs::install(std::string_view path, std::shared_ptr<Inode> node)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string_view::npos)
        return false;
    Directory *parent = ensureDir(path.substr(0, slash));
    if (parent == nullptr)
        return false;
    const std::string_view name = path.substr(slash + 1);
    if (name.empty() || parent->lookup(name) != nullptr)
        return false;
    parent->add(name, std::move(node));
    return true;
}

bool
Vfs::unlink(std::string_view path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string_view::npos)
        return false;
    Inode *dir = resolve(slash == 0 ? "/" : path.substr(0, slash));
    if (dir == nullptr || dir->type() != InodeType::Directory)
        return false;
    return static_cast<Directory *>(dir)->remove(path.substr(slash + 1));
}

std::vector<std::string>
Vfs::listFiles(const std::string &dirPath) const
{
    std::vector<std::string> out;
    Inode *dir = resolve(dirPath);
    if (dir == nullptr || dir->type() != InodeType::Directory)
        return out;
    const std::string prefix =
        dirPath.back() == '/' ? dirPath : dirPath + "/";
    for (const auto &[name, node] :
         static_cast<Directory *>(dir)->entries()) {
        if (node->type() == InodeType::Regular)
            out.push_back(prefix + name);
    }
    return out;
}

} // namespace genesys::osk
