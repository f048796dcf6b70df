/**
 * @file
 * Virtual filesystem substrate.
 *
 * A functional in-memory VFS mirroring the Linux pieces GENESYS
 * exercises: tmpfs regular files, directories, character devices
 * (terminal, /dev/null, /dev/fb0) and /proc-style generated files.
 * "Everything is a file" (Section IV) is load-bearing for the paper —
 * grep prints to the terminal through the same write() path it uses for
 * regular files, and the framebuffer demo drives ioctl/mmap through
 * open("/dev/fb0").
 *
 * Regular files have two storage modes:
 *  - materialized: bytes held in memory (tests, small corpora), and
 *  - synthetic:    size + deterministic content generator, so multi-GiB
 *                  benchmark files (Fig 7 reads up to 2 GiB) cost no
 *                  host RAM.
 */

#ifndef GENESYS_OSK_VFS_HH
#define GENESYS_OSK_VFS_HH

#include <cerrno>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hh"

namespace genesys::osk
{

class BlockDevice;
class Process;

enum class InodeType
{
    Regular,
    Directory,
    CharDevice,
    Proc,
    Pipe,
};

/** ioctl request handler result. */
struct IoctlResult
{
    std::int64_t ret = 0;
};

/** Base inode. Concrete behaviour lives in the subclasses. */
class Inode
{
  public:
    explicit Inode(InodeType type) : type_(type) {}
    virtual ~Inode() = default;

    Inode(const Inode &) = delete;
    Inode &operator=(const Inode &) = delete;

    InodeType type() const { return type_; }
    virtual std::uint64_t size() const { return 0; }

  private:
    InodeType type_;
};

/** tmpfs regular file; optionally backed by a block device for timing. */
class RegularFile : public Inode
{
  public:
    RegularFile() : Inode(InodeType::Regular) {}

    std::uint64_t size() const override { return size_; }

    /** Replace contents with @p data (materialized mode). */
    void setData(std::string_view data);
    void setData(std::vector<std::uint8_t> data);

    /**
     * Make the file synthetic: @p bytes long, with content produced by
     * @p gen(offset) per byte (nullptr => zero-filled reads).
     */
    void setSynthetic(std::uint64_t bytes,
                      std::function<std::uint8_t(std::uint64_t)> gen = {});

    bool synthetic() const { return synthetic_; }

    /**
     * Copy up to @p len bytes starting at @p offset into @p dst (which
     * may be nullptr to model a read whose payload is not inspected).
     * @return bytes read (0 at or past EOF).
     */
    std::uint64_t readAt(std::uint64_t offset, void *dst,
                         std::uint64_t len) const;

    /**
     * Write @p len bytes at @p offset, extending the file as needed.
     * Synthetic files accept writes by materializing nothing and only
     * growing their size (benchmark sinks).
     * @return bytes written.
     */
    std::uint64_t writeAt(std::uint64_t offset, const void *src,
                          std::uint64_t len);

    void truncate(std::uint64_t new_size);

    /** Attach SSD timing: reads pay block-device service time. */
    void setBacking(BlockDevice *dev) { backing_ = dev; }
    BlockDevice *backing() const { return backing_; }

    const std::vector<std::uint8_t> &data() const { return data_; }

  private:
    std::vector<std::uint8_t> data_;
    std::uint64_t size_ = 0;
    bool synthetic_ = false;
    std::function<std::uint8_t(std::uint64_t)> gen_;
    BlockDevice *backing_ = nullptr;
};

/**
 * Directory mapping names to child inodes. A directory may carry a
 * one-shot fill that populates it on first use: it runs once, before
 * the first lookup, add, remove or entries() call, so a generated tree
 * (/sys/genesys) costs nothing in a run that never looks inside it.
 */
class Directory : public Inode
{
  public:
    using Fill = std::function<void()>;
    using Entries =
        std::map<std::string, std::shared_ptr<Inode>, std::less<>>;

    explicit Directory(Fill fill = {})
        : Inode(InodeType::Directory), fill_(std::move(fill))
    {}

    Inode *lookup(std::string_view name) const;
    void add(std::string_view name, std::shared_ptr<Inode> child);
    bool remove(std::string_view name);
    const Entries &entries() const;

  private:
    /** Run the fill, if it has not run yet. */
    void populate() const;

    mutable Fill fill_;
    Entries children_;
};

/** Character device: read/write/ioctl/mmap hooks. */
class CharDevice : public Inode
{
  public:
    CharDevice() : Inode(InodeType::CharDevice) {}

    virtual std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len)
    {
        (void)offset;
        (void)dst;
        (void)len;
        return 0;
    }

    virtual std::uint64_t
    write(std::uint64_t offset, const void *src, std::uint64_t len)
    {
        (void)offset;
        (void)src;
        (void)len;
        return len; // default: sink
    }

    /**
     * @return negative errno or a request-specific value; a device
     * with no ioctls answers -ENOTTY, as Linux does.
     */
    virtual std::int64_t
    ioctl(std::uint64_t request, void *argp)
    {
        (void)request;
        (void)argp;
        return -ENOTTY;
    }

    /**
     * Device memory exposed via mmap, or empty if unsupported.
     * The span stays valid for the device's lifetime.
     */
    virtual std::uint8_t *mmapMemory(std::uint64_t &length)
    {
        length = 0;
        return nullptr;
    }
};

/** /proc-style file whose content is generated at open(). */
class ProcFile : public Inode
{
  public:
    using Generator = std::function<std::string()>;

    explicit ProcFile(Generator gen)
        : Inode(InodeType::Proc), gen_(std::move(gen))
    {}

    std::string generate() const { return gen_(); }

  private:
    Generator gen_;
};

/**
 * The filesystem tree plus path resolution.
 * Paths are absolute, '/'-separated; "." and ".." are not supported
 * (the workloads never use them; attempting to returns -ENOENT).
 */
class Vfs
{
  public:
    Vfs();

    /** Resolve @p path to an inode, or nullptr. */
    Inode *resolve(std::string_view path) const;

    /** Number of components in @p path (for open() timing). */
    static std::size_t componentCount(std::string_view path);

    /**
     * Create (or truncate) a regular file at @p path, creating parent
     * directories on demand. @return the file, or nullptr on conflict
     * (existing non-regular inode).
     */
    RegularFile *createFile(std::string_view path);

    /** Install a device / proc node at @p path. */
    bool install(std::string_view path, std::shared_ptr<Inode> node);

    /** Remove the directory entry at @p path. */
    bool unlink(std::string_view path);

    Directory &root() { return *root_; }

    /** List regular-file paths under @p dirPath (non-recursive). */
    std::vector<std::string> listFiles(const std::string &dirPath) const;

  private:
    Directory *
    ensureDir(std::string_view dirPath);

    std::shared_ptr<Directory> root_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_VFS_HH
