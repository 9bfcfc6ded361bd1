"""REXF binary image format and static linker."""

from .image import FLAG_L, FLAG_W, FLAG_X, Image, Section, Symbol, image_digest
from .linker import TEXT_BASE, link

__all__ = ["FLAG_L", "FLAG_W", "FLAG_X", "Image", "Section", "Symbol", "TEXT_BASE", "image_digest", "link"]
