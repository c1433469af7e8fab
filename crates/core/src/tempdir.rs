//! Scratch directories for tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory path, unique in this process and across the
/// processes running at the same time, removed with everything in it
/// when the guard drops. [`unique_temp_dir`] makes one.
#[derive(Debug)]
pub struct TempDir(PathBuf);

/// A fresh scratch directory path under the system temp dir, named after
/// `tag`, the process id and a counter of the directories this process
/// named. It does not exist yet (a leftover of an earlier process with
/// the same id is removed); the caller creates it, or lets the code
/// under test create it.
pub fn unique_temp_dir(tag: &str) -> TempDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("intune-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    TempDir(dir)
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_dir_is_new_and_removed_on_drop() {
        let a = unique_temp_dir("tempdir");
        let b = unique_temp_dir("tempdir");
        assert_ne!(*a, *b);
        assert!(!a.exists());
        std::fs::create_dir_all(a.join("nested")).unwrap();
        std::fs::write(a.join("nested/file"), "x").unwrap();
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
