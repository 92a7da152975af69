"""Labeled filesystem: persistent storage under the flow rules."""

from .errors import (FsError, IsADirectory, NoSuchPath, NotADirectory,
                     PathExists)
from .filesystem import (Directory, File, FsView, Inode, LabeledFileSystem,
                         split_path)
from .persist import restore_fs

__all__ = [
    "FsError", "IsADirectory", "NoSuchPath", "NotADirectory", "PathExists",
    "Directory", "File", "FsView", "Inode", "LabeledFileSystem", "split_path",
    "restore_fs",
]
