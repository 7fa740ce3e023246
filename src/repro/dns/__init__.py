"""DNS substrate: names, records, messages, zones, and DNSSEC.

This package is a from-scratch DNS codec and data model sufficient to run
LDplayer-style experiments: full wire format with compression, the record
types seen in root/recursive traces, master-file zone parsing, RFC 1034
lookup semantics, and size-faithful synthetic DNSSEC.
"""

from .constants import (DEFAULT_EDNS_PAYLOAD, DNS_OVER_TLS_PORT, DNS_PORT,
                        UDP_PAYLOAD_LIMIT, Flag, Opcode, RRClass, RRType,
                        Rcode)
from .edns import Edns, EdnsOption
from .message import Message, Question, QuestionKey, question_key
from .name import ROOT, Name, NameError_
from .rdata import (AAAA, CAA, CNAME, DNSKEY, DS, MX, NAPTR, NS, NSEC, PTR,
                    RRSIG, SOA, SRV, TLSA, TXT, A, GenericRdata, Rdata,
                    rdata_from_text)
from .rrset import RR, RRset
from .wire import WireError, WireReader, WireWriter
from .zone import AnswerKind, LookupResult, Zone, ZoneError, make_soa
from .zonefile import ZoneFileError, parse_ttl, read_zone, write_zone
from . import dnssec

__all__ = [
    "A", "AAAA", "AnswerKind", "CAA", "CNAME", "DEFAULT_EDNS_PAYLOAD",
    "DNSKEY", "DNS_OVER_TLS_PORT", "DNS_PORT", "DS", "Edns", "EdnsOption",
    "Flag", "GenericRdata", "LookupResult", "MX", "Message", "NS", "NSEC",
    "NAPTR", "Name", "NameError_", "Opcode", "PTR", "Question", "QuestionKey",
    "ROOT", "RR", "TLSA",
    "RRClass", "RRSIG", "RRType", "RRset", "Rcode", "Rdata", "SOA", "SRV",
    "TXT", "UDP_PAYLOAD_LIMIT", "WireError", "WireReader", "WireWriter",
    "Zone", "ZoneError", "ZoneFileError", "dnssec", "make_soa", "parse_ttl",
    "question_key", "rdata_from_text", "read_zone", "write_zone",
]
