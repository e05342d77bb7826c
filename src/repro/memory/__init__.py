"""Memory-node substrate: addressing, DRAM timing, nodes, migration, requests."""

from repro.memory.address import AddressMapper, migration_delta
from repro.memory.dram import DramModel
from repro.memory.migration import (
    MigrationEngine,
    MigrationRecord,
    PageDirectory,
    PageState,
)
from repro.memory.node import MemoryNode, MemoryNodePool
from repro.memory.requests import MemoryRequest, MemoryRequestPath

__all__ = [
    "AddressMapper",
    "DramModel",
    "MemoryNode",
    "MemoryNodePool",
    "MemoryRequest",
    "MemoryRequestPath",
    "MigrationEngine",
    "MigrationRecord",
    "PageDirectory",
    "PageState",
    "migration_delta",
]
