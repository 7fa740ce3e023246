"""DNS messages: header, question, sections, and the full wire codec."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .constants import Flag, Opcode, RRClass, RRType, Rcode
from .edns import Edns, parse_opt_record
from .name import Name
from .rrset import RR
from .wire import WireError, WireReader, WireWriter


@dataclass(frozen=True)
class Question:
    """The question section entry: name, type, class."""

    name: Name
    rrtype: RRType
    rrclass: RRClass = RRClass.IN

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        writer.write_u16(int(self.rrtype))
        writer.write_u16(int(self.rrclass))

    @classmethod
    def from_wire(cls, reader: WireReader) -> "Question":
        name = reader.read_name()
        rrtype = RRType.make(reader.read_u16())
        rrclass = RRClass(reader.read_u16())
        return cls(name, rrtype, rrclass)

    def to_text(self) -> str:
        return f"{self.name} {self.rrclass.name} {self.rrtype.name}"


@dataclass
class Message:
    """A complete DNS message."""

    msg_id: int = 0
    flags: Flag = Flag(0)
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    question: List[Question] = field(default_factory=list)
    answer: List[RR] = field(default_factory=list)
    authority: List[RR] = field(default_factory=list)
    additional: List[RR] = field(default_factory=list)
    edns: Optional[Edns] = None

    # -- convenience constructors ------------------------------------

    @classmethod
    def make_query(cls, name: Name, rrtype: RRType,
                   rrclass: RRClass = RRClass.IN, msg_id: int = 0,
                   recursion_desired: bool = True,
                   edns: Optional[Edns] = None) -> "Message":
        flags = Flag.RD if recursion_desired else Flag(0)
        return cls(msg_id=msg_id, flags=flags,
                   question=[Question(name, rrtype, rrclass)], edns=edns)

    @classmethod
    def make_response(cls, query: "Message",
                      rcode: Rcode = Rcode.NOERROR) -> "Message":
        flags = Flag.QR
        if query.flags & Flag.RD:
            flags |= Flag.RD
        response = cls(msg_id=query.msg_id, flags=flags, opcode=query.opcode,
                       rcode=rcode, question=list(query.question))
        if query.edns is not None:
            response.edns = Edns(dnssec_ok=query.edns.dnssec_ok)
        return response

    # -- flag helpers --------------------------------------------------

    @property
    def is_response(self) -> bool:
        return bool(self.flags & Flag.QR)

    @property
    def dnssec_ok(self) -> bool:
        return self.edns is not None and self.edns.dnssec_ok

    def set_flag(self, flag: Flag, value: bool = True) -> None:
        if value:
            self.flags |= flag
        else:
            self.flags &= ~flag

    # -- codec ---------------------------------------------------------

    def to_wire(self, max_size: Optional[int] = None) -> bytes:
        """Encode; if ``max_size`` is given and exceeded, truncate (TC=1).

        Truncation follows resolver-friendly practice: drop whole records
        from the tail until the message fits, setting the TC bit.  The
        truncated wire is assembled from the already-encoded question
        section (compression pointers in the question section only target
        earlier question names, so the bytes are position-independent
        once the 12-byte header is kept), avoiding a second full encode.
        """
        wire, question_end = self._encode_cached()
        if max_size is None or len(wire) <= max_size:
            return wire
        flags = (int(self.flags | Flag.TC) | (int(self.opcode) << 11)
                 | int(self.rcode))
        header = struct.pack("!6H", self.msg_id, flags, len(self.question),
                             0, 0, 1 if self.edns is not None else 0)
        tail = b""
        if self.edns is not None:
            writer = WireWriter(compress=False)
            self.edns.to_wire(writer)
            tail = writer.getvalue()
        return header + wire[12:question_end] + tail

    def _fingerprint(self) -> tuple:
        """Identity of everything :meth:`_encode` reads.

        Sections hold frozen records, so object identity pins their
        encoding; the cache entry keeps strong references to the listed
        objects, which prevents id() reuse while the entry is alive.
        ``Edns`` is mutable and is fingerprinted by value instead.
        """
        edns = self.edns
        edns_fp = None if edns is None else (
            edns.payload_size, edns.dnssec_ok, edns.version,
            edns.extended_rcode,
            tuple((o.code, o.data) for o in edns.options))
        return (self.msg_id, int(self.flags), int(self.opcode),
                int(self.rcode),
                tuple(map(id, self.question)), tuple(map(id, self.answer)),
                tuple(map(id, self.authority)),
                tuple(map(id, self.additional)), edns_fp)

    def _encode_cached(self) -> Tuple[bytes, int]:
        """Encode, reusing the previous wire if the message is unchanged.

        Returns ``(wire, question_end)`` where ``question_end`` is the
        offset just past the question section (used by truncation).
        """
        fingerprint = self._fingerprint()
        cached = getattr(self, "_wire_cache", None)
        if cached is not None and cached[0] == fingerprint:
            return cached[2], cached[3]
        refs = (tuple(self.question), tuple(self.answer),
                tuple(self.authority), tuple(self.additional))
        wire, question_end = self._encode_sections()
        self._wire_cache = (fingerprint, refs, wire, question_end)
        return wire, question_end

    def _encode(self) -> bytes:
        return self._encode_sections()[0]

    def _encode_sections(self) -> Tuple[bytes, int]:
        writer = WireWriter()
        writer.write_u16(self.msg_id)
        flags = int(self.flags) | (int(self.opcode) << 11) | int(self.rcode)
        writer.write_u16(flags)
        writer.write_u16(len(self.question))
        writer.write_u16(len(self.answer))
        writer.write_u16(len(self.authority))
        additional_count = len(self.additional) + (1 if self.edns else 0)
        writer.write_u16(additional_count)
        for question in self.question:
            question.to_wire(writer)
        question_end = writer.tell()
        for rr in self.answer:
            rr.to_wire(writer)
        for rr in self.authority:
            rr.to_wire(writer)
        for rr in self.additional:
            rr.to_wire(writer)
        if self.edns is not None:
            self.edns.to_wire(writer)
        return writer.getvalue(), question_end

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        if type(wire) is not bytes:
            # Zero-copy responses arrive as WireView/memoryview; decoding
            # needs a real buffer, so this consumer pays the copy.
            wire = bytes(wire)
        try:
            return cls._decode(wire)
        except WireError:
            raise
        except ValueError as exc:
            # Bad enum values, malformed names, etc. all mean the same
            # thing to a server: an undecodable message.
            raise WireError(str(exc)) from exc

    @classmethod
    def _decode(cls, wire: bytes) -> "Message":
        reader = WireReader(wire)
        msg_id = reader.read_u16()
        raw_flags = reader.read_u16()
        qdcount = reader.read_u16()
        ancount = reader.read_u16()
        nscount = reader.read_u16()
        arcount = reader.read_u16()
        message = cls(
            msg_id=msg_id,
            flags=Flag(raw_flags & 0x87B0),
            opcode=Opcode((raw_flags >> 11) & 0xF),
            rcode=Rcode(raw_flags & 0xF),
        )
        for _ in range(qdcount):
            message.question.append(Question.from_wire(reader))
        for _ in range(ancount):
            message.answer.append(RR.from_wire(reader))
        for _ in range(nscount):
            message.authority.append(RR.from_wire(reader))
        for _ in range(arcount):
            edns, was_opt = parse_opt_record(reader)
            if was_opt:
                if message.edns is not None:
                    raise WireError("duplicate OPT record")
                message.edns = edns
            else:
                message.additional.append(RR.from_wire(reader))
        return message

    def wire_size(self) -> int:
        return len(self._encode_cached()[0])

    def to_text(self) -> str:
        lines = [
            f";; id {self.msg_id} opcode {self.opcode.name} "
            f"rcode {self.rcode.name} flags {self._flags_text()}"
        ]
        if self.edns is not None:
            do = " do" if self.edns.dnssec_ok else ""
            lines.append(f";; edns version {self.edns.version} "
                         f"payload {self.edns.payload_size}{do}")
        lines.append(";; QUESTION")
        lines.extend(q.to_text() for q in self.question)
        for title, section in (("ANSWER", self.answer),
                               ("AUTHORITY", self.authority),
                               ("ADDITIONAL", self.additional)):
            if section:
                lines.append(f";; {title}")
                lines.extend(rr.to_text() for rr in section)
        return "\n".join(lines)

    def _flags_text(self) -> str:
        names = [flag.name.lower() for flag in
                 (Flag.QR, Flag.AA, Flag.TC, Flag.RD, Flag.RA, Flag.AD, Flag.CD)
                 if self.flags & flag]
        return " ".join(names) if names else "-"


# (message id, lower-cased wire qname, qtype): what a query and its
# response have in common, used to match one to the other.
QuestionKey = Tuple[int, bytes, int]


def question_key(wire) -> Optional[QuestionKey]:
    """The correlation key of a DNS message, straight from its wire.

    Reads only the header id and the first question's name and type.
    The name stays in wire form (length-prefixed labels), lower-cased:
    a query and its response key the same for every qname, escaped
    bytes included, and distinct qnames never collide (``x\\.y.`` is one
    label, ``x.y.`` two).  A question name is never compressed, so a
    pointer means a malformed question.  Returns None for malformed or
    question-less messages.
    """
    if len(wire) < 12 or not (wire[4] or wire[5]):
        return None
    end = 12
    try:
        length = wire[end]
        while length:
            if length > 63:
                return None
            end += length + 1
            length = wire[end]
        qtype = (wire[end + 1] << 8) | wire[end + 2]
    except IndexError:
        return None
    return ((wire[0] << 8) | wire[1], bytes(wire[12:end + 1]).lower(), qtype)
