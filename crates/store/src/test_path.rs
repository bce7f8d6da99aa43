//! A temp-file path for the unit tests that removes its file on drop.

use std::path::{Path, PathBuf};

/// `durable-topk-<module>-<pid>-<name>` in the temp dir. The file goes
/// when the guard drops, pass or fail; handed by value to a call that
/// opens it, it goes once that call returns, and the open handle keeps
/// the pages readable.
pub(crate) struct TempPath(PathBuf);

impl TempPath {
    pub(crate) fn new(module: &str, name: &str) -> TempPath {
        let file = format!("durable-topk-{module}-{}-{name}", std::process::id());
        TempPath(std::env::temp_dir().join(file))
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
