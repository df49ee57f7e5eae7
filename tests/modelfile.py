"""Model files taken apart and written by hand, to craft what ``save_model`` never writes.

``model_file`` recomputes the digest, so a crafted header or payload reaches
the loader's checks past the checksum.
"""

import functools
import hashlib
import json
import struct
import tempfile
from pathlib import Path

from cosinet.model import FORMAT_VERSION, MAGIC, CosinetConfig, CosinetParams, save_model
from conftest import make_table


def small_model(seed=0, context="birnn"):
    """(config, params, table) of a 4-wide model over a four-word table."""
    config = CosinetConfig(embedding_dim=4, conv_hidden=6, kernel_width=2,
                           context=context, seed=seed)
    table = make_table(["alpha", "beta", "gamma", "?"], dim=4, seed=seed)
    return config, CosinetParams(config), table


@functools.lru_cache(maxsize=None)
def saved_model_bytes():
    """The bytes ``save_model`` writes for ``small_model()``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.bin"
        save_model(path, *small_model())
        return path.read_bytes()


def split_model_file(blob):
    """(header object, payload bytes) of a model file."""
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20:20 + hlen]), blob[20 + hlen:-32]


def model_file(header, payload, version=FORMAT_VERSION):
    """A model file with the digest over every byte before it."""
    raw = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<IQ", version, len(raw)) + raw + payload
    return body + hashlib.sha256(body).digest()
